package chase

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// Budget-aware expansion rests on one fact — no operator costs less than
// ops.MinCost — and promises one thing: a state whose remaining budget is
// below it generated nothing before either. The tests here check both
// against the generators as they stood before (oracleGenRelax,
// oracleGenRefine), on chase states met the way the searches meet them.

// walkedState is one state of a walked chase tree: a rewrite, the
// sequence that led to it, and what that sequence cost.
type walkedState struct {
	what string
	q    *query.Query
	seq  ops.Sequence
	cost float64
}

// walkStates visits the question's query and, level by level, the
// rewrites its three best operators lead to (refinements, then
// relaxations), down to sequences of maxDepth operators; at depth 4 the
// costs run from 0 past the default budget of 3, on both sides of every
// boundary.
func walkStates(t *testing.T, w *Why, what string, q *query.Query, maxDepth int, visit func(walkedState, *match.Result)) {
	t.Helper()
	frontier := []walkedState{{what: what, q: q}}
	for depth := 0; depth <= maxDepth && len(frontier) > 0; depth++ {
		var next []walkedState
		for si, s := range frontier {
			res := w.Matcher.Match(s.q)
			visit(s, res)
			if depth == maxDepth {
				continue
			}
			// Children come from the full budget: the walk must reach the
			// states a search rejects as too expensive only afterwards.
			used := s.seq.Targets()
			pool := append(w.GenRefine(res, used, w.Cfg.Budget), w.GenRelax(res, used, w.Cfg.Budget)...)
			for i, o := range pool {
				if i == 3 || len(next) >= 12 {
					break
				}
				if q2, err := o.Op.Apply(s.q); err == nil {
					seq := append(slices.Clone(s.seq), o.Op)
					next = append(next, walkedState{
						what: fmt.Sprintf("%s depth %d state %d op %d", what, depth+1, si, i),
						q:    q2, seq: seq, cost: seq.Cost(w.G),
					})
				}
			}
		}
		frontier = next
	}
}

// seededQuestions generates a 1500-node graph of the dataset kind and n
// seeded why-questions on it.
func seededQuestions(dataset string, graphSeed, rngSeed int64, n int) (*graph.Graph, []*datagen.WhyInstance, error) {
	g, err := datagen.Generate(dataset, 1500, graphSeed)
	if err != nil {
		return nil, nil, err
	}
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(rngSeed))
	var out []*datagen.WhyInstance
	for tries := 0; len(out) < n && tries < 200; tries++ {
		if inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
			Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
			DisturbOps: 3,
			MaxTuples:  5,
		}, rng); ok {
			out = append(out, inst)
		}
	}
	if len(out) < n {
		return nil, nil, fmt.Errorf("%s: only %d instances", dataset, len(out))
	}
	return g, out, nil
}

// datasetWhys compiles n seeded why-questions on every dataset kind, with
// nothing capped, so that everything scored is compared.
func datasetWhys(t *testing.T, n int, visit func(dataset, what string, w *Why, q *query.Query)) {
	t.Helper()
	for _, dataset := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies, datagen.DatasetOffshore, datagen.DatasetProducts} {
		g, insts, err := seededQuestions(dataset, 23, 29, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range insts {
			cfg := DefaultConfig()
			cfg.Seed = int64(i + 1)
			w, err := NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.maxOpsPerClass = 1 << 20 // everything scored, not the capped head
			visit(dataset, fmt.Sprintf("%s instance %d", dataset, i+1), w, inst.Q)
		}
	}
}

// walkBudgetStates walks the states of the dataset questions and of the
// hand-built edge cases (-0 and Number-with-Str constants among them)
// and visits each under its own remaining budget and, on each
// walk's root, under a NaN budget, which lets every operator through.
func walkBudgetStates(t *testing.T, visit func(w *Why, s walkedState, res *match.Result, used ops.Targets, budgetLeft float64)) {
	t.Helper()
	state := func(w *Why, s walkedState, res *match.Result) {
		used := s.seq.Targets()
		visit(w, s, res, used, w.Cfg.Budget-s.cost)
		if len(s.seq) == 0 {
			visit(w, s, res, used, math.NaN())
		}
	}
	datasetWhys(t, 3, func(_, what string, w *Why, q *query.Query) {
		walkStates(t, w, what, q, 4, func(s walkedState, res *match.Result) { state(w, s, res) })
	})
	g, e, cases := edgeCases()
	for _, tc := range cases {
		w := tc.why(t, g, e)
		walkStates(t, w, tc.name, tc.q, 4, func(s walkedState, res *match.Result) { state(w, s, res) })
	}
}

// TestGeneratedOperatorsCostAtLeastMinCost: on every walked state, every
// operator the three generators emit costs at least ops.MinCost and no
// more than the budget it was generated under.
func TestGeneratedOperatorsCostAtLeastMinCost(t *testing.T) {
	emitted := map[string]int{}
	check := func(what, gen string, w *Why, pool []scoredOp, budgetLeft float64) {
		t.Helper()
		for _, o := range pool {
			c := o.Op.Cost(w.G)
			if !(c >= ops.MinCost) || c > budgetLeft || c != o.Cost || o.Op.Kind == ops.Empty {
				t.Errorf("%s: %s emitted %s at cost %v (cached %v) under budget %v; the floor is %v",
					what, gen, o.Op, c, o.Cost, budgetLeft, ops.MinCost)
			}
		}
		emitted[gen] += len(pool)
	}
	walkBudgetStates(t, func(w *Why, s walkedState, res *match.Result, used ops.Targets, budgetLeft float64) {
		what := fmt.Sprintf("%s budget left %v", s.what, budgetLeft)
		check(what, "GenRelax", w, w.GenRelax(res, used, budgetLeft), budgetLeft)
		check(what, "GenRefine", w, w.GenRefine(res, used, budgetLeft), budgetLeft)
		check(what, "GenRandom", w, w.GenRandom(s.q, used, budgetLeft), budgetLeft)
	})
	for _, gen := range []string{"GenRelax", "GenRefine", "GenRandom"} {
		if emitted[gen] == 0 {
			t.Errorf("%s emitted nothing: the property checked nothing", gen)
		}
	}
}

// TestTerminalStatesGeneratedNothing: on every walked state, GenRelax and
// GenRefine emit exactly what the generators emitted before they asked
// about the budget first. On the terminal states, below ops.MinCost,
// those emitted nothing.
func TestTerminalStatesGeneratedNothing(t *testing.T) {
	for _, b := range []float64{2, ops.MinCost, math.Nextafter(ops.MinCost, 0), 0.5, 0, -1, math.NaN()} {
		if expandable(b) == (b < ops.MinCost) {
			t.Fatalf("expandable(%v) = %v", b, expandable(b))
		}
	}
	terminal, affording := 0, 0
	walkBudgetStates(t, func(w *Why, s walkedState, res *match.Result, used ops.Targets, budgetLeft float64) {
		what := fmt.Sprintf("%s budget left %v", s.what, budgetLeft)
		wantRelax := withGains(w, s.q, func() []scoredOp { return oracleGenRelax(w, s.q, res, used, budgetLeft) })
		wantRefine := withGains(w, s.q, func() []scoredOp { return oracleGenRefine(w, s.q, res, used, budgetLeft) })
		if budgetLeft < ops.MinCost && len(wantRelax.ops)+len(wantRefine.ops) > 0 {
			t.Fatalf("%s: the former generators emit %d relaxations and %d refinements: the short-circuit would change answers",
				what, len(wantRelax.ops), len(wantRefine.ops))
		}
		sameOps(t, what+" GenRelax", withGains(w, s.q, func() []scoredOp { return w.GenRelax(res, used, budgetLeft) }), wantRelax)
		sameOps(t, what+" GenRefine", withGains(w, s.q, func() []scoredOp { return w.GenRefine(res, used, budgetLeft) }), wantRefine)
		switch {
		case math.IsNaN(budgetLeft):
		case budgetLeft < ops.MinCost:
			terminal++
		default:
			affording++
		}
	})
	if terminal < 20 || affording < 20 {
		t.Errorf("walked %d terminal and %d expandable states: want plenty of both", terminal, affording)
	}
}

// TestSeededSearchesUnchanged pins what AnsHeuB, AnsHeu and AnsW return
// for seeded questions, and the effort they report, to what they
// returned before expansion became budget-aware. AnsHeuB is the delicate
// one: GenRandom draws from the question's random stream while it builds
// its pool, so it must still run on states that can afford nothing, or
// every later draw shifts.
func TestSeededSearchesUnchanged(t *testing.T) {
	g, insts, err := seededQuestions(datagen.DatasetProducts, 9, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, inst := range insts {
		for _, algo := range []struct {
			name string
			run  func(*Why) Answer
		}{
			{"AnsHeuB", func(w *Why) Answer { return w.AnsHeuB(3) }},
			{"AnsHeu", func(w *Why) Answer { return w.AnsHeu(3) }},
			{"AnsW", func(w *Why) Answer { return w.AnsW() }},
		} {
			cfg := DefaultConfig()
			cfg.MaxSteps = 300
			cfg.Workers = 1
			cfg.Seed = 41
			w, err := NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := algo.run(w)
			h := fnv.New32a()
			fmt.Fprint(h, a.Matches)
			got = append(got, fmt.Sprintf("%d %s: %s matches#%08x steps=%d states=%d pruned=%d",
				i+1, algo.name, a, h.Sum32(), w.Stats.Steps, w.Stats.States, w.Stats.Pruned))
		}
	}
	if gotAll := strings.Join(got, "\n"); gotAll != seededSearchesGolden {
		t.Errorf("seeded searches changed:\n--- got\n%s\n--- want\n%s", gotAll, seededSearchesGolden)
	}
}

// seededSearchesGolden was printed by TestSeededSearchesUnchanged at the
// commit before budget-aware expansion.
const seededSearchesGolden = `1 AnsHeuB: rewrite cost=1.00 cl=0.0000 |ans|=0 sat=false ops=[AddL(u0, Age = 66)] matches#741638a5 steps=13 states=12 pruned=0
1 AnsHeu: rewrite cost=1.80 cl=-0.1010 |ans|=81 sat=true ops=[RxL(u1.Rating, Rating <= 0.5 → <= 4.4)] matches#def6b0a3 steps=16 states=15 pruned=0
1 AnsW: rewrite cost=1.80 cl=-0.1010 |ans|=81 sat=true ops=[RxL(u1.Rating, Rating <= 0.5 → <= 4.4)] matches#def6b0a3 steps=300 states=300 pruned=0
2 AnsHeuB: rewrite cost=1.00 cl=-0.5280 |ans|=228 sat=true ops=[RmL(u1, Rating = 3.6)] matches#0803d82a steps=16 states=15 pruned=0
2 AnsHeu: rewrite cost=1.12 cl=-0.5280 |ans|=228 sat=true ops=[RmE((u0,u1), 1)] matches#0803d82a steps=11 states=10 pruned=0
2 AnsW: rewrite cost=2.12 cl=-0.1600 |ans|=70 sat=true ops=[RmE((u0,u1), 1) AddL(u0, Score = 5)] matches#976a3018 steps=103 states=103 pruned=0
3 AnsHeuB: rewrite cost=3.00 cl=-0.0038 |ans|=4 sat=true ops=[RmL(u0, Year <= 2005) RmL(u1, Name = user-00143) AddL(u0, Stock = 367)] matches#1ce2fa75 steps=16 states=15 pruned=0
3 AnsHeu: rewrite cost=1.25 cl=0.0400 |ans|=21 sat=true ops=[RmE((u1,u0), 2)] matches#061a8497 steps=4 states=3 pruned=0
3 AnsW: rewrite cost=1.25 cl=0.0400 |ans|=21 sat=true ops=[RmE((u1,u0), 2)] matches#061a8497 steps=2 states=1 pruned=0
4 AnsHeuB: rewrite cost=2.75 cl=0.0053 |ans|=4 sat=true ops=[RxL(u0.Score, Score <= 1 → <= 4) AddL(u1, Age = 44)] matches#a02ffa49 steps=13 states=12 pruned=0
4 AnsHeu: rewrite cost=2.75 cl=0.2213 |ans|=217 sat=true ops=[RxL(u0.Score, Score <= 1 → <= 3) RmE((u1,u0), 2)] matches#fce90019 steps=13 states=12 pruned=0
4 AnsW: rewrite cost=2.75 cl=0.2213 |ans|=217 sat=true ops=[RxL(u0.Score, Score <= 1 → <= 3) RmE((u1,u0), 2)] matches#fce90019 steps=118 states=55 pruned=63`
