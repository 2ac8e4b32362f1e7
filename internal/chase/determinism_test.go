package chase_test

import (
	"fmt"
	"strings"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
)

// renderAnswer serializes the observable result of a run — headline
// (cost, closeness, ops), plus the exact match set — so two runs can be
// compared byte for byte.
func renderAnswer(a chase.Answer) string {
	return fmt.Sprintf("%s matches=%v", a, a.Matches)
}

// TestAnsHeuDeterministicFig1 rebuilds the running example from scratch
// and re-runs AnsHeu: identical inputs must produce byte-identical
// output. This is the regression gate for the map-iteration and
// float-summation nondeterminism wqe-lint's detsource rule exists to
// prevent.
func TestAnsHeuDeterministicFig1(t *testing.T) {
	run := func() string {
		f := datagen.NewFig1()
		w, err := chase.NewWhy(f.G, f.Q, f.E, chase.DefaultConfig())
		if err != nil {
			t.Fatalf("NewWhy: %v", err)
		}
		return renderAnswer(w.AnsHeu(3))
	}
	first := run()
	for i := 1; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("AnsHeu output changed between identical runs:\nfirst:  %s\nrun %d: %s", first, i+1, got)
		}
	}
}

// TestAnsHeuDeterministicSynthetic repeats the check on generated
// Why-questions over a synthetic dataset, where the greedy tie-breaks
// and float sums have far more chances to diverge.
func TestAnsHeuDeterministicSynthetic(t *testing.T) {
	run := func() string {
		g, instances := genInstances(t, datagen.DatasetProducts, 1500, 3, 9)
		var b strings.Builder
		for i, inst := range instances {
			cfg := chase.DefaultConfig()
			cfg.MaxSteps = 800
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatalf("NewWhy: %v", err)
			}
			fmt.Fprintf(&b, "instance %d: %s\n", i, renderAnswer(w.AnsHeu(3)))
		}
		return b.String()
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("AnsHeu output changed between identical runs:\n--- first\n%s--- second\n%s", first, second)
	}
}
