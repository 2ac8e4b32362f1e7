package chase_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/par"
)

// parAlgos are the searches a question can run, each rendered to a
// byte-comparable transcript.
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

// TestParallelMatchesSequentialFig1 is the determinism contract of the
// one level of parallelism, questions side by side: for every search,
// copies of one question asked on one Session, up to width of them at
// once as AskAll runs its jobs (AnsHeuB and TopK are not batch
// algorithms), each produce byte-identical output — and an identical
// step count — to the copy asked alone.
func TestParallelMatchesSequentialFig1(t *testing.T) {
	const copies = 4
	for _, al := range parAlgos {
		al := al
		t.Run(al.name, func(t *testing.T) {
			var base string
			var baseSteps int
			for _, width := range []int{1, 2, 4, 0} {
				f := datagen.NewFig1()
				s := chase.NewSession(f.G, chase.DefaultConfig())
				got := make([]string, copies)
				steps := make([]int, copies)
				par.ForEach(par.Workers(width), copies, func(i int) {
					w, err := s.Why(f.Q, f.E)
					if err != nil {
						panic(err)
					}
					got[i], steps[i] = al.run(w), w.Stats.Steps
				})
				if width == 1 {
					base, baseSteps = got[0], steps[0]
				}
				for i := range got {
					if got[i] != base {
						t.Errorf("width=%d copy %d output diverged from sequential:\nseq: %s\npar: %s",
							width, i, base, got[i])
					}
					if steps[i] != baseSteps {
						t.Errorf("width=%d copy %d step schedule diverged: %d steps, sequential %d",
							width, i, steps[i], baseSteps)
					}
				}
			}
		})
	}
}

// TestParallelMatchesSequentialSynthetic repeats the byte-identity check
// on generated Why-questions over a synthetic dataset, through AskAll:
// beam, exact and Why-Many jobs over one Session, four at a time against
// one at a time.
func TestParallelMatchesSequentialSynthetic(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 1500, 3, 9)
	var jobs []chase.BatchJob
	for _, inst := range instances {
		for _, algo := range []string{"heu", "answ", "whymany"} {
			jobs = append(jobs, chase.BatchJob{Q: inst.Q, E: inst.E, Algo: algo})
		}
	}
	run := func(workers int) string {
		cfg := chase.DefaultConfig()
		cfg.MaxSteps = 800
		cfg.Workers = workers
		results, _ := chase.NewSession(g, cfg).AskAll(jobs)
		var b strings.Builder
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			fmt.Fprintf(&b, "%s steps=%d states=%d\n", renderAnswer(r.Answer), r.Steps, r.States)
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

// TestParallelRaceStress runs every batch algorithm side by side, eight
// jobs at a time over one Session; under -race it dynamically checks the
// sharing contract (immutable graph and distance index, lock-guarded
// star cache with singleflight builds, the pooled generation scratch).
func TestParallelRaceStress(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Workers = 8
	var jobs []chase.BatchJob
	for range 2 {
		jobs = append(jobs,
			chase.BatchJob{Q: f.Q, E: f.E, Algo: "heu", Beam: 4},
			chase.BatchJob{Q: f.Q, E: f.E, Algo: "answ"},
			chase.BatchJob{Q: f.Q, E: f.E, Algo: "whymany"},
			chase.BatchJob{Q: f.Q, E: f.E, Algo: "whyempty"})
	}
	results, stats := chase.NewSession(f.G, cfg).AskAll(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
	}
	if stats.Workers != 8 {
		t.Errorf("stats.Workers = %d, want 8", stats.Workers)
	}
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
			w, err := chase.NewWhy(f.G, f.Q, f.E, chase.DefaultConfig())
			if err != nil {
				t.Errorf("NewWhy: %v", err)
				return
			}
			w.AnsHeu(3)
		}()
	}
	wg.Wait()
}
