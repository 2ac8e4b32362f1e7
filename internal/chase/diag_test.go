package chase_test

import (
	"testing"

	"wqe/internal/chase"
)

// TestDiagSearchEffort logs how much work each variant does on one
// dataset — a development diagnostic, always passing.
func TestDiagSearchEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	g, instances := genInstances(t, "dbpedia-like", 3000, 3, 42)
	for _, tc := range []struct {
		name  string
		cache bool
		prune bool
	}{
		{"AnsW", true, true},
		{"AnsWnc", false, true},
		{"AnsWb", false, false},
	} {
		for i, inst := range instances {
			cfg := chase.DefaultConfig()
			if !tc.cache {
				cfg.CacheCap = 0
			}
			cfg.Prune = tc.prune
			cfg.MaxSteps = 30000
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := w.AnsW()
			t.Logf("%s inst%d: steps=%d states=%d pruned=%d elapsed=%v cl=%.4f cl*=%.4f jac=%.3f cacheHit=%d/%d",
				tc.name, i, w.Stats.Steps, w.Stats.States, w.Stats.Pruned, w.Stats.Elapsed,
				a.Closeness, w.ClStar, jaccard(a.Matches, inst.AnswerStar),
				w.Stats.CacheHits, w.Stats.CacheHits+w.Stats.CacheMiss)
		}
	}
}
