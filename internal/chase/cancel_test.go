package chase

import (
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/query"
)

// TestCancelStopsSearchEarly pins the cancellation plumbing: a
// Why-question whose Cancel channel is already closed performs the root
// evaluation, then stops at the first claim iteration — far short of
// both the unlimited run and MaxSteps — and still returns a usable
// best-so-far answer (the anytime contract).
func TestCancelStopsSearchEarly(t *testing.T) {
	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Budget = 4

	done := make(chan struct{})
	close(done)
	for _, algo := range []struct {
		name string
		run  func(w *Why) Answer
	}{
		{"AnsW", func(w *Why) Answer { return w.AnsW() }},
		{"AnsHeu", func(w *Why) Answer { return w.AnsHeu(8) }},
		{"ApxWhyM", func(w *Why) Answer { return w.ApxWhyM() }},
		{"AnsWE", func(w *Why) Answer { return w.AnsWE() }},
		{"FMAnsW", func(w *Why) Answer { return w.FMAnsW() }},
	} {
		full, err := NewWhy(f.G, f.Q, f.E, cfg)
		if err != nil {
			t.Fatalf("%s: NewWhy: %v", algo.name, err)
		}
		algo.run(full)

		ccfg := cfg
		ccfg.Cancel = done
		w, err := NewWhy(f.G, f.Q, f.E, ccfg)
		if err != nil {
			t.Fatalf("%s: NewWhy: %v", algo.name, err)
		}
		ans := algo.run(w)
		if ans.Query == nil {
			t.Errorf("%s: anytime contract broken: cancelled run returned no answer", algo.name)
		}
		// Every step after the root is claimed from the run, which
		// refuses it once the question is cancelled, so a pre-cancelled
		// run gets its root evaluation in but never reaches the search
		// proper.
		if w.Stats.Steps >= full.Stats.Steps {
			t.Errorf("%s: cancelled run took %d steps, uncancelled %d — cancellation did not cut the search",
				algo.name, w.Stats.Steps, full.Stats.Steps)
		}
		if w.Stats.Steps >= w.Cfg.MaxSteps {
			t.Errorf("%s: cancelled run exhausted MaxSteps", algo.name)
		}
	}
}

// TestCancelMidBeamCutsSteps cancels a chase *while it is running* —
// the OnImprove anytime hook fires mid-search, on the algorithm
// goroutine, making the cancellation point deterministic — and proves
// that the search stops before its uncancelled step count and still
// returns its best rewrite so far.
func TestCancelMidBeamCutsSteps(t *testing.T) {
	f := datagen.NewFig1()

	fullCfg := DefaultConfig()
	fullCfg.Budget = 4
	full, err := NewWhy(f.G, f.Q, f.E, fullCfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	full.AnsHeu(8)

	cancel := make(chan struct{})
	cfg := DefaultConfig()
	cfg.Budget = 4
	cfg.Cancel = cancel
	improved := 0
	cfg.OnImprove = func(Answer) {
		improved++
		if improved == 1 {
			close(cancel) // cancel at the first improvement: mid-search by construction
		}
	}
	w, err := NewSession(f.G, cfg).Why(f.Q, f.E)
	if err != nil {
		t.Fatalf("Why: %v", err)
	}
	ans := w.AnsHeu(8)
	if improved == 0 {
		t.Fatal("OnImprove never fired; cancellation point never reached")
	}
	if ans.Query == nil {
		t.Fatal("cancelled mid-beam run returned no best-so-far answer")
	}
	if w.Stats.Steps >= full.Stats.Steps {
		t.Errorf("cancellation did not cut the search: %d steps vs %d uncancelled",
			w.Stats.Steps, full.Stats.Steps)
	}
}

// TestAskAllCancelFailsQueuedJobsFast: a batch cancelled before its
// jobs start reports ErrCancelled per slot without running any search,
// and the batch stats count the cancellations.
func TestAskAllCancelFailsQueuedJobsFast(t *testing.T) {
	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Budget = 4
	cfg.Workers = 1
	s := NewSession(f.G, cfg)

	done := make(chan struct{})
	close(done)
	jobs := []BatchJob{
		{Q: f.Q, E: f.E, Cancel: done},
		{Q: f.Q, E: f.E, Beam: 3, Cancel: done},
	}
	results, stats := s.AskAll(jobs)
	for i, r := range results {
		if r.Err != ErrCancelled {
			t.Errorf("job %d: err = %v, want ErrCancelled", i, r.Err)
		}
		if r.Steps != 0 {
			t.Errorf("job %d: ran %d steps after batch cancel", i, r.Steps)
		}
	}
	if stats.Cancelled != len(jobs) || stats.Failed != len(jobs) {
		t.Errorf("stats = %+v, want %d cancelled/failed", stats, len(jobs))
	}
	if got := s.Counters().Questions; got != 0 {
		t.Errorf("session counted %d questions for cancelled batch", got)
	}
}

// TestSessionRunAlgoDispatch: Session.Run routes every Algo value to
// its engine, rejects unknown ones per job, and keeps the historical
// meaning of a bare Beam job.
func TestSessionRunAlgoDispatch(t *testing.T) {
	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Budget = 4
	s := NewSession(f.G, cfg)

	for _, algo := range []string{"", "answ", "heu", "whymany", "whyempty", "fmansw"} {
		res := s.Run(BatchJob{Q: f.Q, E: f.E, Algo: algo})
		if res.Err != nil {
			t.Errorf("algo %q: %v", algo, res.Err)
			continue
		}
		if res.Answer.Query == nil || res.Steps < 1 {
			t.Errorf("algo %q: empty outcome %+v", algo, res)
		}
	}
	if res := s.Run(BatchJob{Q: f.Q, E: f.E, Algo: "nope"}); res.Err == nil {
		t.Error("unknown algo must fail the job")
	}
	// "" with Beam keeps the historical meaning: beam search.
	if res := s.Run(BatchJob{Q: f.Q, E: f.E, Beam: 3}); res.Err != nil {
		t.Errorf("bare Beam job: %v", res.Err)
	}

	c := s.Counters()
	if c.Questions != 7 {
		t.Errorf("session questions = %d, want 7", c.Questions)
	}
	if c.Steps < c.Questions {
		t.Errorf("session steps = %d, want ≥ %d", c.Steps, c.Questions)
	}
}

// TestSessionAskMultiFocusSharesState: the session multi-focus path
// runs every focus through the shared star-view cache (a repeated focus
// hits stars the first pass materialized) and counts its questions.
func TestSessionAskMultiFocusSharesState(t *testing.T) {
	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Budget = 4

	s := NewSession(f.G, cfg)
	foci := []query.NodeID{f.Q.Focus, f.Q.Focus} // repeat: the second must reuse cached stars
	exemplars := []*exemplar.Exemplar{f.E, f.E}
	answers, err := s.AskMultiFocus(f.Q, foci, exemplars)
	if err != nil {
		t.Fatalf("AskMultiFocus: %v", err)
	}
	if len(answers) != len(foci) {
		t.Fatalf("got %d answers, want %d", len(answers), len(foci))
	}
	for i, a := range answers {
		if a.Focus != foci[i] || a.Answer.Query == nil {
			t.Errorf("answer %d: %+v", i, a)
		}
	}
	if answers[0].Answer.Closeness != answers[1].Answer.Closeness {
		t.Errorf("identical foci diverged: %v vs %v",
			answers[0].Answer.Closeness, answers[1].Answer.Closeness)
	}

	c := s.Counters()
	if c.Questions != int64(len(foci)) {
		t.Errorf("session questions = %d, want %d", c.Questions, len(foci))
	}
	if c.Cache.Hits == 0 {
		t.Error("second focus shared no star-view cache state with the first")
	}

	if _, err := s.AskMultiFocus(f.Q, foci, exemplars[:1]); err == nil {
		t.Error("mismatched foci/exemplars slices must error")
	}
}
