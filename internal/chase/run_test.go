package chase

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wqe/internal/datagen"
	"wqe/internal/match"
	"wqe/internal/query"
)

// TestRunContract holds every algorithm to the one run contract, on a
// question of each dataset kind, against the same question asked with
// no limit but a step cap above the ones tried:
//   - the reference's last improvement is its answer;
//   - a step cap c cuts the run at exactly min(c, reference steps)
//     claimed steps, says "steps" whenever it cut, and changes nothing
//     when it did not;
//   - a deadline stops the run within one evaluation of passing: the
//     clock jumps past it once k steps are claimed;
//   - a cancel closed before the run starts stops it after at most its
//     root evaluation.
func TestRunContract(t *testing.T) {
	whyNot := datagen.WhySpec{
		Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
		DisturbOps: 3,
		MaxTuples:  5,
	}
	whyMany, whyEmpty := whyNot, whyNot
	whyMany.RelaxOnly, whyEmpty.RefineOnly = true, true
	algos := []struct {
		name  string
		spec  datagen.WhySpec
		prune bool
		run   func(*Why) Answer
	}{
		{"AnsW", whyNot, true, (*Why).AnsW},
		// Without pruning AnsW never stops early at cl*.
		{"AnsW unpruned", whyNot, false, (*Why).AnsW},
		{"AnsHeu", whyNot, true, func(w *Why) Answer { return w.AnsHeu(3) }},
		{"AnsHeuB", whyNot, true, func(w *Why) Answer { return w.AnsHeuB(3) }},
		{"ApxWhyM", whyMany, true, (*Why).ApxWhyM},
		{"AnsWE", whyEmpty, true, (*Why).AnsWE},
		{"FMAnsW", whyNot, true, (*Why).FMAnsW},
	}
	const refCap = 60
	t0 := time.Unix(0, 0)
	closed := make(chan struct{})
	close(closed)
	cut := map[string]int{} // questions whose reference run outlasts every cap tried
	for _, dataset := range datagen.AllDatasets() {
		g, err := datagen.Generate(dataset, 800, 43)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(g, DefaultConfig())
		m := match.NewMatcher(g, s.dist, nil)
		rng := rand.New(rand.NewSource(47))
		for _, a := range algos {
			what := fmt.Sprintf("%s on %s", a.name, dataset)
			ask := func(inst *datagen.WhyInstance, limit func(*Config), prep func(*Why)) (*Why, Answer) {
				cfg := DefaultConfig()
				cfg.MaxSteps, cfg.Prune = refCap, a.prune
				limit(&cfg)
				w, err := newWhyWith(s, inst.Q, inst.E, cfg)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if prep != nil {
					prep(w)
				}
				return w, a.run(w)
			}
			// The first question whose reference run outlasts every cap
			// tried, or else the longest of a few.
			var inst *datagen.WhyInstance
			var ref *Why
			var refAns Answer
			n := 0
			for tries := 0; n <= 5 && tries < 40; tries++ {
				if q, ok := datagen.GenWhy(g, m, a.spec, rng); ok {
					if w, ans := ask(q, func(*Config) {}, nil); w.Stats.Steps > n {
						inst, ref, n, refAns = q, w, w.Stats.Steps, ans
					}
				}
			}
			if inst == nil {
				t.Fatalf("no question for %s", what)
			}
			if tr := ref.Stats.Trajectory; len(tr) > 0 && tr[len(tr)-1].Closeness != refAns.Closeness {
				t.Errorf("%s: last improvement %v, answer %v", what, tr[len(tr)-1].Closeness, refAns.Closeness)
			}
			if n > 5 {
				cut[a.name]++
			}

			for _, c := range []int{1, 2, 5} {
				w, ans := ask(inst, func(cfg *Config) { cfg.MaxSteps = c }, nil)
				st := w.Stats
				switch {
				case st.Steps != min(n, c):
					t.Errorf("%s, MaxSteps %d: %d steps, reference %d", what, c, st.Steps, n)
				case n > c && st.Stop != StopSteps:
					t.Errorf("%s, MaxSteps %d: cut after %d steps, but Stop %q", what, c, st.Steps, st.Stop)
				case n < c && (st.Stop != StopDone || ans.Query.Key() != refAns.Query.Key() || ans.Closeness != refAns.Closeness):
					t.Errorf("%s, MaxSteps %d above the reference's %d steps: Stop %q, answer %s, reference %s",
						what, c, n, st.Stop, ans, refAns)
				}
			}

			for _, k := range []int{1, 3} {
				w, _ := ask(inst, func(cfg *Config) { cfg.TimeLimit = time.Minute }, func(w *Why) {
					w.clock = func() time.Time {
						if w.Stats.Steps < k {
							return t0
						}
						return t0.Add(time.Hour)
					}
				})
				st := w.Stats
				switch {
				case n > k && (st.Stop != StopDeadline || st.Steps > k+1):
					t.Errorf("%s, deadline passed at step %d: Stop %q after %d steps, reference %d", what, k, st.Stop, st.Steps, n)
				case n < k && (st.Stop != StopDone || st.Steps != n):
					t.Errorf("%s, deadline passed at step %d: Stop %q after %d steps, reference %d", what, k, st.Stop, st.Steps, n)
				}
			}

			w, ans := ask(inst, func(cfg *Config) { cfg.Cancel = closed }, nil)
			if st := w.Stats; st.Steps != 1 || n > 1 && st.Stop != StopCancelled || ans.Query == nil {
				t.Errorf("%s, cancelled before it started: Stop %q after %d steps, answer %v", what, st.Stop, st.Steps, ans.Query)
			}
		}
	}
	for _, a := range algos {
		if cut[a.name] == 0 {
			t.Errorf("%s: no reference run took more than 5 steps, so no cap cut it", a.name)
		}
	}
}
