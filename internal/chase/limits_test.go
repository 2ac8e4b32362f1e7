package chase_test

import (
	"sync"
	"testing"
	"time"

	"wqe/internal/chase"
)

// TestMaxStepsRespected: a session job's MaxSteps can lower the
// session's cap but not raise it, with the answer memo on (its flights
// run detached, bounded by nothing else). That every algorithm stops at
// its cap is TestRunContract's.
func TestMaxStepsRespected(t *testing.T) {
	g, instances := genInstances(t, "watdiv-like", 2000, 1, 91)
	cfg := chase.DefaultConfig()
	cfg.Prune = false // keep it from terminating early for other reasons
	cfg.MaxSteps, cfg.AnswerCacheCap = 50, 16
	s := chase.NewSession(g, cfg)
	for _, c := range [][2]int{{1_000_000, 50}, {10, 10}} { // job MaxSteps, steps allowed
		if r := s.Run(chase.BatchJob{Q: instances[0].Q, E: instances[0].E, MaxSteps: c[0]}); r.Err != nil || r.Steps > c[1] {
			t.Errorf("job MaxSteps %d in a session capped at 50: %d steps (err %v), want at most %d", c[0], r.Steps, r.Err, c[1])
		}
	}
}

// TestTimeLimitRespected: the anytime cutoff stops the search promptly.
func TestTimeLimitRespected(t *testing.T) {
	g, instances := genInstances(t, "dbpedia-like", 3000, 1, 93)
	cfg := chase.DefaultConfig()
	cfg.TimeLimit = 30 * time.Millisecond
	cfg.Prune = false
	w, err := chase.NewWhy(g, instances[0].Q, instances[0].E, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	a := w.AnsW()
	elapsed := time.Since(start)
	// Generous envelope: one in-flight step may overshoot the limit.
	if elapsed > time.Second {
		t.Errorf("time limit ignored: ran %v", elapsed)
	}
	if a.Query == nil {
		t.Error("no answer under time limit")
	}
}

// TestConcurrentWhyQuestions: independent Why-questions over one graph
// run concurrently (exercised under -race in CI runs).
func TestConcurrentWhyQuestions(t *testing.T) {
	g, instances := genInstances(t, "watdiv-like", 2000, 3, 95)
	var wg sync.WaitGroup
	errs := make(chan error, len(instances))
	for _, inst := range instances {
		inst := inst
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := chase.DefaultConfig()
			cfg.MaxSteps = 200
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				errs <- err
				return
			}
			w.AnsW()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
