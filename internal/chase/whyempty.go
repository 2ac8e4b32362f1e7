package chase

import (
	"sort"

	"wqe/internal/graph"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// AnsWE answers removal-only Why-Empty questions (§6.1, Lemma 6.2):
// given a query with no relevant matches, find RmL/RmE operators of
// total cost ≤ B whose removal makes at least one relevant candidate a
// match.
//
// Per the lemma's proof, the query is decomposed into atomic-condition
// fragments — each focus literal, each non-focus node's connection to
// the focus, and each non-focus literal — and every relevant candidate
// is associated with the relaxation operators of the fragments it
// fails. The cheapest candidate within budget wins. The lemma covers
// star queries exactly; for deeper shapes the chosen rewrite is
// verified by evaluation and the next candidate is tried on failure.
func (w *Why) AnsWE() Answer {
	r := w.startRun()
	defer r.end()

	rootAns, _ := r.root()
	q := w.Q
	focus := q.Focus

	// Branch edges: for every non-focus node, the first pattern edge on
	// its (undirected) path toward the focus; removing it detaches the
	// node's branch.
	branch := branchEdges(q)

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
			pd := q.PatternDist(focus, u)
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

// branchEdges maps every non-focus pattern node to the edge index that
// connects its branch toward the focus (BFS tree over the undirected
// pattern).
func branchEdges(q *query.Query) map[query.NodeID]int {
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
