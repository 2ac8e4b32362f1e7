package chase_test

import (
	"maps"
	"math"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/graph"
	"wqe/internal/ops"
)

// newFig1Why compiles the running example with the paper's Example 3.3
// budget B = 4.
func newFig1Why(t *testing.T, cfg chase.Config) (*datagen.Fig1, *chase.Why) {
	t.Helper()
	f := datagen.NewFig1()
	if cfg.Budget == 0 {
		cfg.Budget = 4
	}
	w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	return f, w
}

func answerSet(f *datagen.Fig1, matches []graph.NodeID) map[string]bool {
	inv := map[graph.NodeID]string{}
	for name, id := range f.Phones {
		inv[id] = name
	}
	out := map[string]bool{}
	for _, v := range matches {
		out[inv[v]] = true
	}
	return out
}

// TestFig1GroundTruth verifies the pre-chase facts of Examples 2.1/2.3:
// Q(G), also with every edge bound raised to 1000 or math.MaxInt32,
// rep(E, V), and the relevance partition.
func TestFig1GroundTruth(t *testing.T) {
	f, w := newFig1Why(t, chase.Config{})

	if got := len(w.FocusCands); got != 6 {
		t.Fatalf("|V_Cellphone| = %d, want 6", got)
	}

	res := w.Matcher.Match(f.Q)
	ans := answerSet(f, res.Answer)
	for _, p := range []string{"P1", "P2", "P5"} {
		if !ans[p] {
			t.Errorf("Q(G) misses %s (got %v)", p, ans)
		}
	}
	if len(ans) != 3 {
		t.Errorf("Q(G) = %v, want {P1, P2, P5}", ans)
	}
	for _, bound := range []int{1000, math.MaxInt32} { // both past every path in G
		q := f.Q.Clone()
		for e := range q.Edges {
			q.Edges[e].Bound = bound
		}
		if got := answerSet(f, w.Matcher.Match(q).Answer); !maps.Equal(got, ans) {
			t.Errorf("Q(G) with every edge bound at %d = %v, want %v", bound, got, ans)
		}
	}

	for _, p := range []string{"P3", "P4", "P5"} {
		if !w.Eval.InRep(f.Phones[p]) {
			t.Errorf("rep(E, V) misses %s", p)
		}
		if cl := w.Eval.Cl(f.Phones[p]); cl != 1 {
			t.Errorf("cl(%s, E) = %v, want 1", p, cl)
		}
	}
	for _, p := range []string{"P1", "P2", "P6"} {
		if w.Eval.InRep(f.Phones[p]) {
			t.Errorf("rep(E, V) wrongly contains %s", p)
		}
	}

	rm, im, rc, ic := w.Partition(res)
	if len(rm) != 1 || rm[0] != f.Phones["P5"] {
		t.Errorf("RM = %v, want {P5}", rm)
	}
	if len(im) != 2 {
		t.Errorf("IM = %v, want {P1, P2}", im)
	}
	if len(rc) != 2 {
		t.Errorf("RC = %v, want {P3, P4}", rc)
	}
	if len(ic) != 1 || ic[0] != f.Phones["P6"] {
		t.Errorf("IC = %v, want {P6}", ic)
	}

	// cl* = |rep ∩ V_uo| / |V_uo| = 3/6 (all rep members have cl 1).
	if w.ClStar != 0.5 {
		t.Errorf("cl* = %v, want 0.5", w.ClStar)
	}
	// cl(Q(G), E) = (1 − λ·2)/6 with λ = 1.
	if got := w.Closeness(res.Answer); !almostEqual(got, -1.0/6) {
		t.Errorf("cl(Q(G), E) = %v, want -1/6", got)
	}
}

func almostEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestFig1AnsW verifies that AnsW recovers the optimal rewrite of
// Example 3.3: answers {P3, P4, P5}, closeness 1/2 (the theoretical
// optimum), using relaxation of the price literal, removal of the
// sensor edge, and a carrier refinement.
func TestFig1AnsW(t *testing.T) {
	f, w := newFig1Why(t, chase.Config{})
	a := w.AnsW()

	if !a.Satisfied {
		t.Fatalf("AnsW answer not satisfied: %v", a)
	}
	if !almostEqual(a.Closeness, 0.5) {
		t.Fatalf("AnsW closeness = %v, want 0.5 (ops %v)", a.Closeness, a.Ops)
	}
	ans := answerSet(f, a.Matches)
	for _, p := range []string{"P3", "P4", "P5"} {
		if !ans[p] {
			t.Errorf("Q'(G) misses %s: %v", p, ans)
		}
	}
	if len(ans) != 3 {
		t.Errorf("Q'(G) = %v, want exactly {P3, P4, P5}", ans)
	}
	if a.Cost > 4 {
		t.Errorf("cost %v exceeds budget 4", a.Cost)
	}
	if !a.Ops.IsNormalForm() {
		t.Errorf("reported ops not in normal form: %v", a.Ops)
	}
	// The rewrite must relax the sensor requirement and the price bound
	// and refine the carrier.
	var sawRelaxEdge, sawPriceRelax, sawRefine bool
	for _, o := range a.Ops {
		switch {
		case o.Kind == ops.RmE || o.Kind == ops.RxE:
			sawRelaxEdge = true
		case (o.Kind == ops.RxL || o.Kind == ops.RmL) && o.Lit.Attr == "Price":
			sawPriceRelax = true
		case o.Kind.IsRefine():
			sawRefine = true
		}
	}
	if !sawRelaxEdge || !sawPriceRelax || !sawRefine {
		t.Errorf("unexpected operator mix: %v", a.Ops)
	}
	if len(a.Diff) == 0 {
		t.Errorf("differential table is empty")
	}
}

// TestFig1AnsHeu verifies the beam heuristic reaches the optimum on the
// small example for reasonable beam widths.
func TestFig1AnsHeu(t *testing.T) {
	for _, beam := range []int{2, 3, 5} {
		_, w := newFig1Why(t, chase.Config{})
		a := w.AnsHeu(beam)
		if !almostEqual(a.Closeness, 0.5) {
			t.Errorf("AnsHeu(beam=%d) closeness = %v, want 0.5 (ops %v)", beam, a.Closeness, a.Ops)
		}
	}
}

// TestFig1Variants exercises the ablation configurations (no cache, no
// pruning): all must reach the same optimal closeness.
func TestFig1Variants(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  chase.Config
	}{
		{"AnsW", chase.Config{Search: chase.Search{Prune: true}, Engine: chase.Engine{CacheCap: 4096}}},
		{"AnsWnc", chase.Config{Search: chase.Search{Prune: true}}},
		{"AnsWb", chase.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Budget = 4
			_, w := newFig1Why(t, cfg)
			a := w.AnsW()
			if !almostEqual(a.Closeness, 0.5) {
				t.Errorf("%s closeness = %v, want 0.5", tc.name, a.Closeness)
			}
		})
	}
}

// TestFig1TopK verifies top-k suggestion returns distinct rewrites in
// non-increasing closeness order.
func TestFig1TopK(t *testing.T) {
	_, w := newFig1Why(t, chase.Config{})
	answers := w.TopK(3)
	if len(answers) != 3 {
		t.Fatalf("TopK(3) returned %d answers", len(answers))
	}
	if !almostEqual(answers[0].Closeness, 0.5) {
		t.Errorf("best of top-3 = %v, want 0.5", answers[0].Closeness)
	}
	for i := 1; i < len(answers); i++ {
		if answers[i].Closeness > answers[i-1].Closeness+1e-9 {
			t.Errorf("top-k not sorted: %v then %v", answers[i-1].Closeness, answers[i].Closeness)
		}
	}
}

// TestFig1Explanations pins what the algorithms without a search
// lineage explain on Fig 1 at the default budget: ApxWhyM and AnsWE name
// every operator they applied, and FMAnsW says that it replaced the
// query.
func TestFig1Explanations(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*chase.Why) chase.Answer
		want string
	}{
		{"ApxWhyM", (*chase.Why).ApxWhyM, `Rewrote the query with 1 operator(s), total cost 1.00:
  • AddL(u0, Display = 6.2) — required "Display = 6.2" on node u0.
Final answers: 1 entities, closeness 0.1667.
`},
		{"AnsWE", (*chase.Why).AnsWE, `Rewrote the query with 2 operator(s), total cost 2.33:
  • RmL(u0, Price >= 840) — dropped the condition "Price >= 840" on node u0.
  • RmE((u0,u2), 2) — no longer requires u0 to connect to u2.
Final answers: 5 entities, closeness 0.1667.
`},
		{"FMAnsW", (*chase.Why).FMAnsW, `Replaced the query with a mined one: u0:Cellphone*[RAM = 4]; u1:Carrier; (u1)-1->(u0).
Final answers: 2 entities, closeness 0.3333.
`},
	} {
		f, w := newFig1Why(t, chase.Config{Search: chase.Search{Budget: 3}})
		a := tc.run(w)
		if got := a.Explain(f.G); got != tc.want {
			t.Errorf("%s explains\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
