package chase_test

import (
	"math/rand"
	"reflect"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// TestPartitionCoversCandidates: RM ∪ IM ∪ RC ∪ IC partitions V_{u_o}.
func TestPartitionCoversCandidates(t *testing.T) {
	f := datagen.NewFig1()
	w, err := chase.NewWhy(f.G, f.Q, f.E, chase.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := w.Matcher.Match(f.Q)
	rm, im, rc, ic := w.Partition(res)
	total := len(rm) + len(im) + len(rc) + len(ic)
	if total != len(w.FocusCands) {
		t.Fatalf("partition covers %d of %d candidates", total, len(w.FocusCands))
	}
	seen := map[graph.NodeID]int{}
	for _, s := range [][]graph.NodeID{rm, im, rc, ic} {
		for _, v := range s {
			seen[v]++
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("candidate %d appears in %d classes", v, n)
		}
	}
}

// TestGeneratedOpsApplicable: every picky operator is applicable,
// within budget, and respects the canonical-target discipline.
func TestGeneratedOpsApplicable(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Matcher.Match(f.Q)
	params := ops.Params{MaxBound: cfg.MaxBound}

	relax := w.GenRelax(res, nil, cfg.Budget)
	if len(relax) == 0 {
		t.Fatal("no relaxations generated despite RC nodes")
	}
	for _, s := range relax {
		if !s.Op.Kind.IsRelax() {
			t.Errorf("GenRelax produced non-relaxation %s", s.Op)
		}
		if !s.Op.Applicable(f.Q, params) {
			t.Errorf("inapplicable op generated: %s", s.Op)
		}
		if c := s.Op.Cost(f.G); c > cfg.Budget {
			t.Errorf("over-budget op generated: %s (%.2f)", s.Op, c)
		}
		if s.Pick <= 0 {
			t.Errorf("non-positive pickiness on %s", s.Op)
		}
	}

	refine := w.GenRefine(res, nil, cfg.Budget)
	if len(refine) == 0 {
		t.Fatal("no refinements generated despite IM nodes")
	}
	for _, s := range refine {
		if !s.Op.Kind.IsRefine() {
			t.Errorf("GenRefine produced non-refinement %s", s.Op)
		}
		if !s.Op.Applicable(f.Q, params) {
			t.Errorf("inapplicable op generated: %s", s.Op)
		}
	}

	// Used targets must be honored.
	used := ops.Targets{ops.LitTarget(0, "Price")}
	for _, s := range w.GenRelax(res, used, cfg.Budget) {
		if s.Op.U == f.Q.Focus && s.Op.Lit.Attr == "Price" {
			t.Errorf("generator reused a spent target: %s", s.Op)
		}
	}
}

// TestPickinessBoundsGain is the Lemma 5.2 property: for every
// generated relaxation o, p(o) ≥ cl(Q ⊕ o) − cl(Q).
func TestPickinessBoundsGain(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Matcher.Match(f.Q)
	base := w.Closeness(res.Answer)
	for _, s := range w.GenRelax(res, nil, cfg.Budget) {
		q2 := mustApply(t, s.Op, f.Q)
		res2 := w.Matcher.Match(q2)
		gain := w.Closeness(res2.Answer) - base
		if s.Pick < gain-1e-9 {
			t.Errorf("pickiness %f underestimates gain %f for %s", s.Pick, gain, s.Op)
		}
	}
}

// TestPickinessBoundsGainSynthetic extends the Lemma 5.2 check to
// generated instances.
func TestPickinessBoundsGainSynthetic(t *testing.T) {
	g, instances := genInstances(t, "watdiv-like", 2000, 3, 77)
	for _, inst := range instances {
		w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res := w.Matcher.Match(inst.Q)
		base := w.Closeness(res.Answer)
		pool := w.GenRelax(res, nil, 3)
		for i, s := range pool {
			if i >= 10 {
				break // checking the top of the queue suffices
			}
			res2 := w.Matcher.Match(mustApply(t, s.Op, inst.Q))
			gain := w.Closeness(res2.Answer) - base
			if s.Pick < gain-1e-9 {
				t.Errorf("pickiness %f underestimates gain %f for %s", s.Pick, gain, s.Op)
			}
		}
	}
}

// TestAnsWBudget: answers never exceed the budget, across budgets.
func TestAnsWBudget(t *testing.T) {
	f := datagen.NewFig1()
	for _, b := range []float64{1, 2, 3, 4, 5} {
		cfg := chase.DefaultConfig()
		cfg.Budget = b
		w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := w.AnsW()
		if a.Cost > b+1e-9 {
			t.Errorf("budget %v: cost %v", b, a.Cost)
		}
		if got := a.Ops.Cost(f.G); !almostEqual(got, a.Cost) {
			t.Errorf("reported cost %v disagrees with sequence cost %v", a.Cost, got)
		}
	}
}

// TestAnsWMonotoneInBudget: a larger budget never yields a worse
// optimal closeness (the search space grows monotonically).
func TestAnsWMonotoneInBudget(t *testing.T) {
	f := datagen.NewFig1()
	prev := -1.0
	for _, b := range []float64{1, 2, 3, 4, 5} {
		cfg := chase.DefaultConfig()
		cfg.Budget = b
		w, _ := chase.NewWhy(f.G, f.Q, f.E, cfg)
		a := w.AnsW()
		if a.Closeness < prev-1e-9 {
			t.Errorf("budget %v decreased closeness: %v < %v", b, a.Closeness, prev)
		}
		prev = a.Closeness
	}
}

// TestAnsWDeterministic: identical inputs give identical rewrites.
func TestAnsWDeterministic(t *testing.T) {
	g, instances := genInstances(t, "offshore-like", 2000, 2, 31)
	for _, inst := range instances {
		var keys []string
		var cls []float64
		for run := 0; run < 2; run++ {
			w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			a := w.AnsW()
			keys = append(keys, a.Query.Key())
			cls = append(cls, a.Closeness)
		}
		if keys[0] != keys[1] || cls[0] != cls[1] {
			t.Fatalf("nondeterministic AnsW: %v vs %v (cl %v vs %v)", keys[0], keys[1], cls[0], cls[1])
		}
	}
}

// TestDiffTableConsistency: replaying the rewrite's operator deltas
// reconstructs the final answer from the original one.
func TestDiffTableConsistency(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	w, _ := chase.NewWhy(f.G, f.Q, f.E, cfg)
	root := w.Matcher.Match(f.Q)
	a := w.AnsW()

	cur := map[graph.NodeID]bool{}
	for _, v := range root.Answer {
		cur[v] = true
	}
	for _, d := range a.Diff {
		for _, n := range d.Delta {
			if n.Added {
				cur[n.V] = true
			} else {
				delete(cur, n.V)
			}
		}
	}
	want := map[graph.NodeID]bool{}
	for _, v := range a.Matches {
		want[v] = true
	}
	if !reflect.DeepEqual(cur, want) {
		t.Errorf("diff replay = %v, want %v", cur, want)
	}
}

// TestApxWhyM: the Why-Many answer uses refinement-only operators
// within budget and does not add irrelevant matches.
func TestApxWhyM(t *testing.T) {
	g, instances := genInstancesSpec(t, "offshore-like", 2500, 3, 51, datagen.WhySpec{
		Query:      datagen.QuerySpec{Edges: 2, MaxPredicates: 3},
		DisturbOps: 2,
		MaxTuples:  5,
		RelaxOnly:  true,
	})
	improved := 0
	for _, inst := range instances {
		w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		root := w.Matcher.Match(inst.Q)
		_, imBefore, _, _ := w.Partition(root)
		a := w.ApxWhyM()
		for _, o := range a.Ops {
			if !o.Kind.IsRefine() {
				t.Errorf("ApxWhyM applied non-refinement %s", o)
			}
		}
		if a.Cost > w.Cfg.Budget+1e-9 {
			t.Errorf("ApxWhyM exceeded budget: %v", a.Cost)
		}
		imAfter := 0
		for _, v := range a.Matches {
			if !w.Eval.InRep(v) {
				imAfter++
			}
		}
		if imAfter > len(imBefore) {
			t.Errorf("ApxWhyM increased |IM|: %d → %d", len(imBefore), imAfter)
		}
		if imAfter < len(imBefore) {
			improved++
		}
		if a.Closeness < w.Closeness(root.Answer)-1e-9 {
			t.Errorf("ApxWhyM decreased closeness")
		}
	}
	if improved == 0 {
		t.Error("ApxWhyM never removed an irrelevant match")
	}
}

// TestAnsWE: removal-only Why-Empty rewriting on a constructed case.
func TestAnsWE(t *testing.T) {
	gb := graph.NewBuilder()
	brand := gb.AddNode("Brand", map[string]graph.Value{"Name": graph.S("Apple")})
	l1 := gb.AddNode("Laptop", map[string]graph.Value{
		"Year": graph.N(2018), "GPU": graph.S("AMD"), "RAM": graph.N(32),
	})
	gb.AddEdge(l1, brand, "madeBy")
	l2 := gb.AddNode("Laptop", map[string]graph.Value{
		"Year": graph.N(2017), "GPU": graph.S("NVidia"), "RAM": graph.N(16),
	})
	gb.AddEdge(l2, brand, "madeBy")

	q := query.New()
	lap := q.AddNode("Laptop",
		query.Literal{Attr: "Year", Op: graph.GE, Val: graph.N(2018)},
		query.Literal{Attr: "GPU", Op: graph.EQ, Val: graph.S("NVidia")},
	)
	br := q.AddNode("Brand")
	q.AddEdge(lap, br, 1)
	q.Focus = lap

	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{
		"RAM": exemplar.C(graph.N(32)),
	}}}

	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	w, err := chase.NewWhy(g, q, e, chase.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := w.Matcher.Match(q)
	if len(root.Answer) != 0 {
		t.Fatalf("setup broken: Q(G) = %v", root.Answer)
	}
	a := w.AnsWE()
	if len(a.Matches) == 0 {
		t.Fatal("AnsWE found no rewrite")
	}
	found := false
	for _, v := range a.Matches {
		if v == l1 {
			found = true
		}
	}
	if !found {
		t.Errorf("AnsWE answer %v misses the relevant laptop", a.Matches)
	}
	for _, o := range a.Ops {
		if o.Kind != ops.RmL && o.Kind != ops.RmE {
			t.Errorf("AnsWE used non-removal operator %s", o)
		}
	}
	// Exactly the GPU literal was responsible.
	if len(a.Ops) != 1 || a.Ops[0].Lit.Attr != "GPU" {
		t.Errorf("expected the single GPU removal, got %v", a.Ops)
	}
}

// TestAnsHeuBRandomSeedStability: AnsHeuB is random but seeded.
func TestAnsHeuBRandomSeedStability(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	cfg.Seed = 5
	w1, _ := chase.NewWhy(f.G, f.Q, f.E, cfg)
	w2, _ := chase.NewWhy(f.G, f.Q, f.E, cfg)
	a1, a2 := w1.AnsHeuB(3), w2.AnsHeuB(3)
	if a1.Query.Key() != a2.Query.Key() {
		t.Error("same seed should reproduce AnsHeuB results")
	}
}

// TestFMAnsWReturnsQuery: the baseline always yields an evaluable query.
func TestFMAnsWReturnsQuery(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	w, _ := chase.NewWhy(f.G, f.Q, f.E, cfg)
	a := w.FMAnsW()
	if a.Query == nil {
		t.Fatal("nil suggestion")
	}
	res := w.Matcher.Match(a.Query)
	if got := w.Closeness(res.Answer); !almostEqual(got, a.Closeness) {
		t.Errorf("reported closeness %v, re-evaluated %v", a.Closeness, got)
	}
}

// TestTrivialExemplarRejected: rep(E, V) = ∅ must be refused.
func TestTrivialExemplarRejected(t *testing.T) {
	f := datagen.NewFig1()
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{
		"Display": exemplar.C(graph.N(99)),
	}}}
	if _, err := chase.NewWhy(f.G, f.Q, e, chase.DefaultConfig()); err == nil {
		t.Error("trivial exemplar must be rejected")
	}
}

// TestAnytimeTrajectory: every algorithm reports its improvements, the
// same way and monotonically: one trajectory sample per OnImprove call,
// the last of them the answer returned.
func TestAnytimeTrajectory(t *testing.T) {
	f := datagen.NewFig1()
	for _, algo := range []struct {
		name string
		run  func(*chase.Why) chase.Answer
	}{
		{"AnsW", (*chase.Why).AnsW},
		{"AnsHeu", func(w *chase.Why) chase.Answer { return w.AnsHeu(3) }},
		{"ApxWhyM", (*chase.Why).ApxWhyM},
		{"AnsWE", (*chase.Why).AnsWE},
		{"FMAnsW", (*chase.Why).FMAnsW},
	} {
		cfg := chase.DefaultConfig()
		cfg.Budget = 4
		var improvements []float64
		cfg.OnImprove = func(best chase.Answer) {
			improvements = append(improvements, best.Closeness)
		}
		w, _ := chase.NewWhy(f.G, f.Q, f.E, cfg)
		ans := algo.run(w)
		n := len(improvements)
		if n == 0 {
			t.Fatalf("%s: no improvements reported", algo.name)
		}
		for i := 1; i < n; i++ {
			if improvements[i] < improvements[i-1] {
				t.Errorf("%s: anytime improvements must be monotone", algo.name)
			}
		}
		if improvements[n-1] != ans.Closeness {
			t.Errorf("%s: last improvement %v, answer %v", algo.name, improvements[n-1], ans.Closeness)
		}
		if len(w.Stats.Trajectory) != n {
			t.Errorf("%s: trajectory length %d vs callbacks %d", algo.name, len(w.Stats.Trajectory), n)
		}
	}
}

// whySpec is the question shape most tests ask for: two-edge trees,
// three disturbing operators, up to five exemplar tuples.
var whySpec = datagen.WhySpec{
	Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
	DisturbOps: 3,
	MaxTuples:  5,
}

// genInstancesSpec is genInstances with a custom WhySpec.
func genInstancesSpec(t *testing.T, dataset string, nodes, count int, seed int64, spec datagen.WhySpec) (*graph.Graph, []*datagen.WhyInstance) {
	t.Helper()
	g, err := datagen.Generate(dataset, nodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g, genWhyOn(t, g, distindex.NewBFS(g), count, seed, spec)
}

// genWhyOn builds count Why-question instances of the spec over an
// existing graph using the given distance index, so that the load tests
// can reuse the graph they just built.
func genWhyOn(t *testing.T, g *graph.Graph, idx distindex.Index, count int, seed int64, spec datagen.WhySpec) []*datagen.WhyInstance {
	t.Helper()
	m := match.NewMatcher(g, idx, nil)
	rng := rand.New(rand.NewSource(seed + 7))
	var out []*datagen.WhyInstance
	for tries := 0; len(out) < count && tries < count*30; tries++ {
		if inst, ok := datagen.GenWhy(g, m, spec, rng); ok {
			out = append(out, inst)
		}
	}
	if len(out) < count {
		t.Fatalf("only generated %d/%d instances", len(out), count)
	}
	return out
}
