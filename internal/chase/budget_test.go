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
// relaxations), down to sequences of four operators: costs from 0 past
// the default budget of 3, on both sides of every boundary.
func walkStates(t *testing.T, w *Why, what string, q *query.Query, visit func(walkedState, *match.Result)) {
	t.Helper()
	frontier := []walkedState{{what: what, q: q}}
	for depth := 0; depth <= 4 && len(frontier) > 0; depth++ {
		var next []walkedState
		for si, s := range frontier {
			res := w.Matcher.Match(s.q)
			visit(s, res)
			if depth == 4 {
				continue
			}
			// Children come from the full budget: the walk must reach the
			// states a search rejects as too expensive only afterwards.
			used := opTargets(s.seq)
			pool := append(w.GenRefine(s.q, res, used, w.Cfg.Budget), w.GenRelax(s.q, res, used, w.Cfg.Budget)...)
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

// datasetWhys compiles a few seeded why-questions on every dataset kind
// (the sweep of TestGenRefineMatchesOracleOnDatasets).
func datasetWhys(t *testing.T, visit func(what string, w *Why, inst *datagen.WhyInstance)) {
	t.Helper()
	for _, dataset := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies, datagen.DatasetOffshore, datagen.DatasetProducts} {
		g, err := datagen.Generate(dataset, 1500, 23)
		if err != nil {
			t.Fatal(err)
		}
		m := match.NewMatcher(g, distindex.NewBFS(g), nil)
		rng := rand.New(rand.NewSource(29))
		instances := 0
		for tries := 0; instances < 3 && tries < 200; tries++ {
			inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
				Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
				DisturbOps: 3,
				MaxTuples:  5,
			}, rng)
			if !ok {
				continue
			}
			instances++
			cfg := DefaultConfig()
			cfg.Seed = int64(instances)
			w, err := NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.maxOpsPerClass = 1 << 20 // everything scored, not the capped head
			visit(fmt.Sprintf("%s instance %d", dataset, instances), w, inst)
		}
		if instances < 3 {
			t.Fatalf("%s: only %d instances", dataset, instances)
		}
	}
}

// TestGeneratedOperatorsCostAtLeastMinCost: every operator the three
// generators emit, on the four dataset kinds and on the hand-built edge
// cases (NaN, -0 and Number-with-Str constants among them), costs at
// least ops.MinCost and no more than the budget it was generated under.
func TestGeneratedOperatorsCostAtLeastMinCost(t *testing.T) {
	emitted := map[string]int{}
	check := func(what, gen string, w *Why, pool []scoredOp, budgetLeft float64) {
		t.Helper()
		for _, o := range pool {
			c := o.Op.Cost(w.G)
			if !(c >= ops.MinCost) || c > budgetLeft || c != o.Cost {
				t.Errorf("%s: %s emitted %s at cost %v (cached %v) under budget %v; the floor is %v",
					what, gen, o.Op, c, o.Cost, budgetLeft, ops.MinCost)
			}
			if o.Op.Kind == ops.Empty {
				t.Errorf("%s: %s emitted the empty operator", what, gen)
			}
		}
		emitted[gen] += len(pool)
	}
	state := func(w *Why, s walkedState, res *match.Result) {
		used := opTargets(s.seq)
		for _, budgetLeft := range []float64{w.Cfg.Budget, 2, 1.5, ops.MinCost} {
			check(s.what, "GenRelax", w, w.GenRelax(s.q, res, used, budgetLeft), budgetLeft)
			check(s.what, "GenRefine", w, w.GenRefine(s.q, res, used, budgetLeft), budgetLeft)
			check(s.what, "GenRandom", w, w.GenRandom(s.q, used, budgetLeft), budgetLeft)
		}
	}
	datasetWhys(t, func(what string, w *Why, inst *datagen.WhyInstance) {
		walkStates(t, w, what, inst.Q, func(s walkedState, res *match.Result) { state(w, s, res) })
	})
	g, e, cases := edgeCases()
	for _, tc := range cases {
		w := tc.why(t, g, e)
		state(w, walkedState{what: tc.name, q: tc.q}, w.Matcher.Match(tc.q))
	}
	for _, gen := range []string{"GenRelax", "GenRefine", "GenRandom"} {
		if emitted[gen] == 0 {
			t.Errorf("%s emitted nothing: the property checked nothing", gen)
		}
	}
}

// TestTerminalStatesGeneratedNothing: on every walked state, under its
// own remaining budget and under budgets on both sides of ops.MinCost,
// GenRelax and GenRefine emit exactly what the generators emitted before
// they asked about the budget first — which, below ops.MinCost, is
// nothing.
func TestTerminalStatesGeneratedNothing(t *testing.T) {
	terminal, affording := 0, 0
	state := func(w *Why, s walkedState, res *match.Result) {
		used := opTargets(s.seq)
		own := w.Cfg.Budget - s.cost
		for _, budgetLeft := range []float64{own, ops.MinCost, math.Nextafter(ops.MinCost, 0), 0.5, 0, -1, math.NaN()} {
			what := fmt.Sprintf("%s budget left %v", s.what, budgetLeft)
			wantRelax := oracleGenRelax(w, s.q, res, used, budgetLeft)
			wantRefine := oracleGenRefine(w, s.q, res, used, budgetLeft)
			if budgetLeft < ops.MinCost && len(wantRelax)+len(wantRefine) > 0 {
				t.Fatalf("%s: the former generators emit %d relaxations and %d refinements: the short-circuit would change answers",
					what, len(wantRelax), len(wantRefine))
			}
			if expandable(budgetLeft) == (budgetLeft < ops.MinCost) {
				t.Fatalf("%s: expandable = %v", what, expandable(budgetLeft))
			}
			sameOps(t, what+" GenRelax", w.GenRelax(s.q, res, used, budgetLeft), wantRelax)
			sameOps(t, what+" GenRefine", w.GenRefine(s.q, res, used, budgetLeft), wantRefine)
		}
		if own < ops.MinCost {
			terminal++
		} else {
			affording++
		}
	}
	datasetWhys(t, func(what string, w *Why, inst *datagen.WhyInstance) {
		walkStates(t, w, what, inst.Q, func(s walkedState, res *match.Result) { state(w, s, res) })
	})
	g, e, cases := edgeCases()
	for _, tc := range cases {
		w := tc.why(t, g, e)
		walkStates(t, w, tc.name, tc.q, func(s walkedState, res *match.Result) { state(w, s, res) })
	}
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
	g, err := datagen.Generate(datagen.DatasetProducts, 1500, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(16))
	var got []string
	for n, tries := 0, 0; n < 4 && tries < 200; tries++ {
		inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
			Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
			DisturbOps: 3,
			MaxTuples:  5,
		}, rng)
		if !ok {
			continue
		}
		n++
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
				n, algo.name, a, h.Sum32(), w.Stats.Steps, w.Stats.States, w.Stats.Pruned))
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
