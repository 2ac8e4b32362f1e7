package chase_test

import (
	"testing"

	"wqe/internal/chase"
)

// TestDiagSearchEffort holds AnsW to the Engine contract on generated
// instances: with the star cache off (CacheCap = 0) it returns the
// answer it returns with the cache on — ops, matches and closeness —
// after exactly the same Steps, States and Pruned. The effort of both
// runs is logged.
func TestDiagSearchEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	g, instances := genInstances(t, "dbpedia-like", 3000, 3, 42)
	for i, inst := range instances {
		run := func(name string, cacheCap int) (chase.Answer, chase.Stats) {
			cfg := chase.DefaultConfig()
			cfg.CacheCap = cacheCap
			cfg.MaxSteps = 30000
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := w.AnsW()
			t.Logf("%s inst%d: steps=%d states=%d pruned=%d elapsed=%v cl=%.4f cl*=%.4f jac=%.3f cacheHit=%d/%d",
				name, i, w.Stats.Steps, w.Stats.States, w.Stats.Pruned, w.Stats.Elapsed,
				a.Closeness, w.ClStar, jaccard(a.Matches, inst.AnswerStar),
				w.Stats.CacheHits, w.Stats.CacheHits+w.Stats.CacheMiss)
			return a, w.Stats
		}
		a, s := run("AnsW", chase.DefaultConfig().CacheCap)
		anc, snc := run("AnsWnc", 0)
		if renderAnswer(anc) != renderAnswer(a) || anc.Closeness != a.Closeness {
			t.Errorf("inst%d: without the cache AnsW answers\n  %s cl=%v\nwith it\n  %s cl=%v",
				i, renderAnswer(anc), anc.Closeness, renderAnswer(a), a.Closeness)
		}
		if snc.Steps != s.Steps || snc.States != s.States || snc.Pruned != s.Pruned {
			t.Errorf("inst%d: steps/states/pruned %d/%d/%d without the cache, %d/%d/%d with it",
				i, snc.Steps, snc.States, snc.Pruned, s.Steps, s.States, s.Pruned)
		}
	}
}
