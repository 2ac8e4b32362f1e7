package chase_test

import (
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/ops"
)

// TestAnswerIsValidChaseResult checks the Theorem 4.3 direction we can
// test mechanically: every answer the algorithms return corresponds to
// a terminal canonical Q-Chase sequence in normal form — the operator
// sequence is canonical, normal-form, within budget, applicable to Q,
// reproduces the reported rewrite, and its answers satisfy E when the
// answer claims so.
func TestAnswerIsValidChaseResult(t *testing.T) {
	g, instances := genInstances(t, "watdiv-like", 2500, 4, 61)
	params := ops.Params{MaxBound: 3}
	for _, inst := range instances {
		for _, algo := range []string{"AnsW", "AnsHeu"} {
			w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			var a chase.Answer
			if algo == "AnsW" {
				a = w.AnsW()
			} else {
				a = w.AnsHeu(3)
			}

			if !a.Ops.Canonical() {
				t.Errorf("%s: non-canonical sequence %v", algo, a.Ops)
			}
			if !a.Ops.IsNormalForm() {
				t.Errorf("%s: sequence not in normal form %v", algo, a.Ops)
			}
			if a.Cost > w.Cfg.Budget+1e-9 {
				t.Errorf("%s: cost %v over budget", algo, a.Cost)
			}
			rebuilt, err := a.Ops.Apply(inst.Q, params)
			if err != nil {
				t.Errorf("%s: sequence not applicable to Q: %v", algo, err)
				continue
			}
			if rebuilt.Key() != a.Query.Key() {
				t.Errorf("%s: Q ⊕ O ≠ reported rewrite:\n%s\nvs\n%s",
					algo, rebuilt, a.Query)
			}
			// Re-evaluate independently: answers and satisfaction agree.
			res := w.Matcher.Match(a.Query)
			if len(res.Answer) != len(a.Matches) {
				t.Errorf("%s: reported %d matches, re-evaluation has %d",
					algo, len(a.Matches), len(res.Answer))
			}
			if got := w.Satisfied(res.Answer); got != a.Satisfied {
				t.Errorf("%s: satisfaction mismatch: reported %v, actual %v",
					algo, a.Satisfied, got)
			}
			if got := w.Closeness(res.Answer); !almostEqual(got, a.Closeness) {
				t.Errorf("%s: closeness mismatch: %v vs %v", algo, a.Closeness, got)
			}
		}
	}
}

// TestChaseStepSemantics traces the Fig 6 simulation on the running
// example: a relaxation step adds relevant candidates to the answer, a
// refinement step removes irrelevant matches, and the final pair
// satisfies the exemplar.
func TestChaseStepSemantics(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := w.AnsW()

	// Replay the chase steps: relaxations must never shrink RM, and
	// refinements must never add matches.
	prev := w.Matcher.Match(f.Q)
	q := f.Q
	for _, d := range a.Diff {
		q2 := mustApply(t, d.Op, q)
		next := w.Matcher.Match(q2)
		if d.Op.Kind.IsRelax() {
			for _, v := range prev.Answer {
				if !next.Has(v) {
					t.Errorf("relaxation %s removed match %d", d.Op, v)
				}
			}
		}
		if d.Op.Kind.IsRefine() {
			for _, v := range next.Answer {
				if !prev.Has(v) {
					t.Errorf("refinement %s added match %d", d.Op, v)
				}
			}
		}
		prev, q = next, q2
	}
	if !w.Satisfied(prev.Answer) {
		t.Error("replayed terminal pair does not satisfy E")
	}
}

// TestRelaxMonotone property: applying any generated relaxation never
// removes answers; any generated refinement never adds them (the
// operator-class semantics underlying the Q-Chase step rules).
func TestRelaxMonotone(t *testing.T) {
	g, instances := genInstances(t, "offshore-like", 2000, 2, 67)
	for _, inst := range instances {
		w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res := w.Matcher.Match(inst.Q)
		for i, s := range w.GenRelax(res, nil, 3) {
			if i >= 8 {
				break
			}
			res2 := w.Matcher.Match(mustApply(t, s.Op, inst.Q))
			for _, v := range res.Answer {
				if !res2.Has(v) {
					t.Errorf("relaxation %s dropped match %d", s.Op, v)
				}
			}
		}
		for i, s := range w.GenRefine(res, nil, 3) {
			if i >= 8 {
				break
			}
			res2 := w.Matcher.Match(mustApply(t, s.Op, inst.Q))
			for _, v := range res2.Answer {
				if !res.Has(v) {
					t.Errorf("refinement %s added match %d", s.Op, v)
				}
			}
		}
	}
}
