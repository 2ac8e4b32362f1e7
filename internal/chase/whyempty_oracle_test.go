package chase

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// oracleAnsWE is AnsWE as it stood while its plans tested nodes by value
// — Literal.Sat and label strings — and drew one ball per relevant
// candidate and pattern node, verbatim apart from its name and the
// helpers it calls as they stood: oracleBranchEdges, and
// oraclePatternDist, the per-pair Bellman-Ford that Query.FocusDist
// replaced.
func oracleAnsWE(w *Why) Answer {
	r := w.startRun()
	defer r.end()

	rootAns, _ := r.root()
	q := w.Q
	focus := q.Focus

	// Branch edges: for every non-focus node, the first pattern edge on
	// its (undirected) path toward the focus; removing it detaches the
	// node's branch.
	branch := oracleBranchEdges(q)

	// Relevant candidates: rep members carrying the focus label.
	var rc []graph.NodeID
	for _, v := range w.FocusCands {
		if w.Eval.InRep(v) {
			rc = append(rc, v)
		}
	}
	if len(rc) == 0 {
		return rootAns
	}

	type plan struct {
		v    graph.NodeID
		ops  ops.Sequence
		cost float64
	}
	var plans []plan
	for _, v := range rc {
		// A plan takes a ball per pattern node: poll per candidate.
		if !r.more() {
			break
		}
		var seq ops.Sequence
		seen := map[opIdent]bool{}
		addOp := func(o ops.Op) {
			k := identOf(o)
			if !seen[k] {
				seen[k] = true
				seq = append(seq, o)
			}
		}

		// Fragment class 1: focus literals.
		for _, l := range q.Nodes[focus].Literals {
			if !l.Sat(w.G, v) {
				addOp(ops.Op{Kind: ops.RmL, U: focus, Lit: l})
			}
		}

		// Fragment classes 2 and 3: per non-focus node, its connection
		// and its literals, each evaluated via a bounded neighborhood of
		// the candidate.
		detached := map[int]bool{} // edges already scheduled for removal
		for ui := range q.Nodes {
			u := query.NodeID(ui)
			if u == focus {
				continue
			}
			be, ok := branch[u]
			if !ok {
				continue // already disconnected from the focus
			}
			pd := oraclePatternDist(q, focus, u)
			if pd == graph.Unreachable || pd > 2*w.Cfg.MaxBound {
				pd = 2 * w.Cfg.MaxBound
			}
			ball := w.G.Ball(v, pd, graph.Both)

			// Class 2: does any label-compatible node sit within range?
			label := q.Nodes[u].Label
			connected := false
			for _, nd := range ball {
				if nd.D == 0 {
					continue
				}
				if label == "" || w.G.Label(nd.V) == label {
					connected = true
					break
				}
			}
			if !connected {
				if !detached[be] {
					detached[be] = true
					e := q.Edges[be]
					addOp(ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound})
				}
				continue // literals on a detached branch are moot
			}
			// Class 3: per-literal fragments.
			for _, l := range q.Nodes[u].Literals {
				sat := false
				for _, nd := range ball {
					if nd.D == 0 {
						continue
					}
					if (label == "" || w.G.Label(nd.V) == label) && l.Sat(w.G, nd.V) {
						sat = true
						break
					}
				}
				if !sat {
					addOp(ops.Op{Kind: ops.RmL, U: u, Lit: l})
				}
			}
		}
		plans = append(plans, plan{v: v, ops: seq, cost: seq.Cost(w.G)})
	}

	sort.SliceStable(plans, func(i, j int) bool { return plans[i].cost < plans[j].cost })
	for _, p := range plans {
		if p.cost > w.Cfg.Budget {
			break
		}
		if len(p.ops) == 0 {
			continue // already a match locally but not globally: skip
		}
		q2, err := p.ops.Apply(q, w.params)
		if err != nil {
			continue
		}
		// One verification evaluation per plan: this is the loop a
		// cancelled or deadline-expired Why-Empty question must leave.
		if !r.claim() {
			break
		}
		ans2, res2 := w.evaluate(nil, q2, p.ops) // removals only: nothing to take from the root
		if res2.Has(p.v) {
			r.improve(ans2)
			return ans2
		}
	}
	return rootAns
}

// oracleBranchEdges is branchEdges as it stood, verbatim apart from its
// name: it maps every non-focus pattern node to the edge index that
// connects its branch toward the focus (BFS tree over the undirected
// pattern).
func oracleBranchEdges(q *query.Query) map[query.NodeID]int {
	branch := map[query.NodeID]int{}
	visited := make([]bool, len(q.Nodes))
	visited[q.Focus] = true
	frontier := []query.NodeID{q.Focus}
	for len(frontier) > 0 {
		var next []query.NodeID
		for _, u := range frontier {
			for ei, e := range q.Edges {
				var nb query.NodeID
				switch u {
				case e.From:
					nb = e.To
				case e.To:
					nb = e.From
				default:
					continue
				}
				if !visited[nb] {
					visited[nb] = true
					if _, hasRoot := branch[u]; hasRoot {
						// Deeper nodes inherit the root edge of their
						// branch: removing it detaches them too.
						branch[nb] = branch[u]
					} else {
						branch[nb] = ei
					}
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return branch
}

// oraclePatternDist is Query.PatternDist as it stood: the undirected,
// bound-weighted distance between pattern nodes a and b, by a
// Bellman-Ford of its own; graph.Unreachable when none joins them.
func oraclePatternDist(q *query.Query, a, b query.NodeID) int {
	if a == b {
		return 0
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, len(q.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	dist[a] = 0
	// Bellman-Ford style relaxation: queries are tiny, simplicity wins.
	for iter := 0; iter < len(q.Nodes); iter++ {
		changed := false
		for _, e := range q.Edges {
			if dist[e.From] != inf && dist[e.From]+e.Bound < dist[e.To] {
				dist[e.To] = dist[e.From] + e.Bound
				changed = true
			}
			if dist[e.To] != inf && dist[e.To]+e.Bound < dist[e.From] {
				dist[e.From] = dist[e.To] + e.Bound
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if dist[b] == inf {
		return graph.Unreachable
	}
	return dist[b]
}

// TestAnsWEMatchesByValuePlans holds AnsWE, which tests nodes through
// the compiled pattern and draws one ball per relevant candidate, to
// oracleAnsWE on Fig 1 and on seeded Why-Empty (tree and cyclic) and
// Why-Not questions of every dataset kind: the same answer, operators,
// Steps and Stop.
func TestAnsWEMatchesByValuePlans(t *testing.T) {
	same := func(what string, s *Session, q *query.Query, e *exemplar.Exemplar, cfg Config) bool {
		t.Helper()
		ask := func(run func(*Why) Answer) (*Why, Answer) {
			w, err := newWhyWith(s, q, e, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return w, run(w)
		}
		wg, got := ask((*Why).AnsWE)
		ww, want := ask(oracleAnsWE)
		if got.Query.Key() != want.Query.Key() || fmt.Sprint(got.Ops) != fmt.Sprint(want.Ops) ||
			math.Float64bits(got.Closeness) != math.Float64bits(want.Closeness) ||
			!slices.Equal(got.Matches, want.Matches) || got.Satisfied != want.Satisfied {
			t.Fatalf("%s: AnsWE %s, the by-value plans %s", what, got, want)
		}
		if wg.Stats.Steps != ww.Stats.Steps || wg.Stats.Stop != ww.Stats.Stop {
			t.Fatalf("%s: AnsWE took %d steps, stop %q; the by-value plans %d, stop %q",
				what, wg.Stats.Steps, wg.Stats.Stop, ww.Stats.Steps, ww.Stats.Stop)
		}
		return len(got.Ops) > 0
	}

	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Budget = 4
	if !same("Fig 1", NewSession(f.G, cfg), f.Q, f.E, cfg) {
		t.Error("Fig 1: AnsWE found no rewrite")
	}

	whyNot := datagen.WhySpec{
		Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 3, MaxPredicates: 2, PathEdgeProb: 0.2},
		DisturbOps: 3,
		MaxTuples:  5,
	}
	whyEmpty := whyNot
	whyEmpty.RefineOnly = true
	cyclic := whyEmpty // where a node's branch depends on the BFS order
	cyclic.Query.Shape = query.TopoCyclic
	asked, rewritten := 0, 0
	for _, dataset := range datagen.AllDatasets() {
		g, err := datagen.Generate(dataset, 800, 53)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(g, DefaultConfig())
		m := match.NewMatcher(g, s.dist, nil)
		rng := rand.New(rand.NewSource(59))
		for i := 0; i < 40; i++ {
			spec := []datagen.WhySpec{whyEmpty, whyEmpty, cyclic, whyNot}[i%4]
			inst, ok := datagen.GenWhy(g, m, spec, rng)
			if !ok {
				continue
			}
			asked++
			cfg := DefaultConfig()
			cfg.Budget = float64(1 + i%4)
			if same(fmt.Sprintf("%s question %d", dataset, i), s, inst.Q, inst.E, cfg) {
				rewritten++
			}
		}
	}
	t.Logf("%d questions, %d rewritten", asked, rewritten)
	if asked < 80 || rewritten < 20 {
		t.Errorf("%d questions, %d rewritten: the comparison needs plans that verify", asked, rewritten)
	}
}
