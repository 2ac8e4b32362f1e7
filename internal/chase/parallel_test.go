package chase_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
)

// parAlgos are the algorithms with parallel evaluation paths, each
// rendered to a byte-comparable transcript.
var parAlgos = []struct {
	name string
	run  func(w *chase.Why) string
}{
	{"AnsHeu", func(w *chase.Why) string { return renderAnswer(w.AnsHeu(3)) }},
	{"AnsHeuB", func(w *chase.Why) string { return renderAnswer(w.AnsHeuB(3)) }},
	{"AnsW", func(w *chase.Why) string { return renderAnswer(w.AnsW()) }},
	{"TopK3", func(w *chase.Why) string {
		var b strings.Builder
		for _, a := range w.TopK(3) {
			b.WriteString(renderAnswer(a))
			b.WriteByte('\n')
		}
		return b.String()
	}},
	{"ApxWhyM", func(w *chase.Why) string { return renderAnswer(w.ApxWhyM()) }},
}

// TestParallelMatchesSequentialFig1 is the core determinism contract of
// the parallel evaluation engine: for every algorithm, any worker count
// must produce byte-identical output — and an identical step count — to
// the fully sequential run, because candidates are claimed and committed
// in sequential order and only the evaluations in between run
// concurrently.
func TestParallelMatchesSequentialFig1(t *testing.T) {
	for _, al := range parAlgos {
		al := al
		t.Run(al.name, func(t *testing.T) {
			var base string
			var baseSteps int
			for _, workers := range []int{1, 2, 4, 0} {
				f := datagen.NewFig1()
				cfg := chase.DefaultConfig()
				cfg.Workers = workers
				w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
				if err != nil {
					t.Fatalf("NewWhy: %v", err)
				}
				got := al.run(w)
				if workers == 1 {
					base, baseSteps = got, w.Stats.Steps
					continue
				}
				if got != base {
					t.Errorf("workers=%d output diverged from sequential:\nseq: %s\npar: %s",
						workers, base, got)
				}
				if w.Stats.Steps != baseSteps {
					t.Errorf("workers=%d step schedule diverged: %d steps, sequential %d",
						workers, w.Stats.Steps, baseSteps)
				}
			}
		})
	}
}

// TestParallelMatchesSequentialSynthetic repeats the byte-identity check
// on generated Why-questions over a synthetic dataset, where operator
// pools and beam levels are larger and give the fan-outs far more
// opportunities to misorder work if the commit discipline were wrong.
func TestParallelMatchesSequentialSynthetic(t *testing.T) {
	run := func(workers int) string {
		g, instances := genInstances(t, datagen.DatasetProducts, 1500, 3, 9)
		var b strings.Builder
		for _, inst := range instances {
			cfg := chase.DefaultConfig()
			cfg.MaxSteps = 800
			cfg.Workers = workers
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatalf("NewWhy: %v", err)
			}
			b.WriteString(renderAnswer(w.AnsHeu(3)))
			b.WriteByte('\n')
			b.WriteString(renderAnswer(w.AnsW()))
			b.WriteByte('\n')
			b.WriteString(renderAnswer(w.ApxWhyM()))
			b.WriteByte('\n')
		}
		return b.String()
	}
	seq := run(1)
	if par := run(4); par != seq {
		t.Fatalf("parallel output diverged from sequential:\n--- workers=1\n%s--- workers=4\n%s", seq, par)
	}
}

// TestAnsWEvaluatesOnlyClaimedSteps holds the best-first search to one
// evaluation path at every worker count: on the four dataset kinds, a
// pool of AnsW and TopK(2) questions through one Session at Workers=1
// and at Workers=4 looks the star cache up equally often (Hits, Misses
// and Coalesced together), with the same answers, Steps and States.
// Matching a step the search has not claimed, say a sibling evaluated
// ahead on a spare worker, adds lookups the sequential run never makes.
func TestAnsWEvaluatesOnlyClaimedSteps(t *testing.T) {
	for _, kind := range datagen.AllDatasets() {
		g, instances := genInstances(t, kind, 800, 4, 3)
		run := func(workers int) (string, int64) {
			cfg := chase.DefaultConfig()
			cfg.MaxSteps = 60
			cfg.Workers = workers
			s := chase.NewSession(g, cfg)
			var b strings.Builder
			for _, inst := range instances {
				for _, k := range []int{1, 2} {
					w, err := s.Why(inst.Q, inst.E)
					if err != nil {
						t.Fatalf("%s: Why: %v", kind, err)
					}
					for _, a := range w.TopK(k) {
						b.WriteString(renderAnswer(a))
						b.WriteByte('\n')
					}
					fmt.Fprintf(&b, "steps=%d states=%d\n", w.Stats.Steps, w.Stats.States)
				}
			}
			c := s.Counters().Cache
			return b.String(), c.Hits + c.Misses + c.Coalesced
		}
		seq, seqLookups := run(1)
		par, parLookups := run(4)
		if par != seq {
			t.Errorf("%s: Workers=4 answers or counts diverged:\n--- Workers=1\n%s--- Workers=4\n%s", kind, seq, par)
		}
		if parLookups != seqLookups {
			t.Errorf("%s: star cache looked up %d times at Workers=4, %d at Workers=1", kind, parLookups, seqLookups)
		}
	}
}

// TestParallelRaceStress drives every parallel path with a wide worker
// pool; under -race it dynamically checks the engine's sharing contract
// (read-only Why state, atomic step counter, lock-guarded cache with
// singleflight builds).
func TestParallelRaceStress(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Workers = 8
	w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	w.AnsHeu(4)
	w.AnsW()
	w.ApxWhyM()
}

// TestConcurrentWhyQuestionsSharedGraph runs independent parallel
// Why-questions over one shared graph — the multi-tenant pattern
// NewWhy's cache-warming exists for. Meaningful under -race.
func TestConcurrentWhyQuestionsSharedGraph(t *testing.T) {
	f := datagen.NewFig1()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := chase.DefaultConfig()
			cfg.Workers = 4
			w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
			if err != nil {
				t.Errorf("NewWhy: %v", err)
				return
			}
			w.AnsHeu(3)
		}()
	}
	wg.Wait()
}
