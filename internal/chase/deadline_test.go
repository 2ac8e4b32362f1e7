package chase

import (
	"testing"
	"time"

	"wqe/internal/datagen"
)

// fakeClock advances a fixed step on every read, making TimeLimit
// expiry a deterministic function of how many deadline checks ran.
func fakeClock(step time.Duration) func() time.Time {
	now := time.Unix(0, 0)
	return func() time.Time {
		now = now.Add(step)
		return now
	}
}

// TestBeamDeadlineCheckedPerCandidate pins the TimeLimit bugfix: the
// beam search re-checks the deadline for every claimed candidate, not
// just once per frontier state, so a single state with a large operator
// pool can no longer blow past the limit by a whole beam width.
//
// The fake clock advances 4ms per read against a 10ms limit anchored at
// the first read: the first level's claim loop gets through at most one
// candidate before its next per-candidate check expires. The old
// per-state-only check would have claimed the full beam.
func TestBeamDeadlineCheckedPerCandidate(t *testing.T) {
	f := datagen.NewFig1()

	full, err := NewWhy(f.G, f.Q, f.E, DefaultConfig())
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	full.AnsHeu(8)
	if full.Stats.Steps <= 3 {
		t.Fatalf("fixture too small: unlimited run took only %d steps", full.Stats.Steps)
	}

	cfg := DefaultConfig()
	cfg.TimeLimit = 10 * time.Millisecond
	w, err := NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	w.clock = fakeClock(4 * time.Millisecond)
	ans := w.AnsHeu(8)

	if w.Stats.Steps >= full.Stats.Steps {
		t.Fatalf("deadline did not cut the search: %d steps, unlimited run %d",
			w.Stats.Steps, full.Stats.Steps)
	}
	// Root evaluation plus at most one level-1 candidate: expiring after
	// that proves the check sits inside the expansion loop.
	if w.Stats.Steps > 2 {
		t.Fatalf("deadline should expire mid-expansion after at most 2 steps, got %d", w.Stats.Steps)
	}
	if ans.Query == nil {
		t.Fatal("anytime contract broken: no best-so-far answer returned")
	}
}

// TestAbsoluteDeadlineWinsOverTimeLimit pins the Config.Deadline
// contract both ways: an early absolute deadline cuts the search even
// under a generous TimeLimit, and a far-future deadline lets the search
// run to completion even when the relative TimeLimit alone would have
// expired immediately.
func TestAbsoluteDeadlineWinsOverTimeLimit(t *testing.T) {
	f := datagen.NewFig1()

	full, err := NewWhy(f.G, f.Q, f.E, DefaultConfig())
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	full.AnsW()
	if full.Stats.Steps <= 2 {
		t.Fatalf("fixture too small: unlimited run took only %d steps", full.Stats.Steps)
	}

	// Early Deadline, generous TimeLimit: the deadline must cut.
	cfg := DefaultConfig()
	cfg.TimeLimit = time.Hour
	cfg.Deadline = time.Unix(0, 0).Add(6 * time.Millisecond)
	w, err := NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	w.clock = fakeClock(4 * time.Millisecond)
	ans := w.AnsW()
	if w.Stats.Steps >= full.Stats.Steps {
		t.Errorf("absolute deadline lost to the hour-long TimeLimit: %d steps", w.Stats.Steps)
	}
	if ans.Query == nil {
		t.Error("anytime contract broken: no best-so-far answer returned")
	}

	// Far-future Deadline, instantly-expiring TimeLimit: the deadline
	// must win, letting the search finish like the unlimited run.
	cfg = DefaultConfig()
	cfg.TimeLimit = time.Nanosecond
	cfg.Deadline = time.Unix(0, 0).Add(time.Hour)
	w, err = NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	w.clock = fakeClock(4 * time.Millisecond)
	w.AnsW()
	if w.Stats.Steps != full.Stats.Steps {
		t.Errorf("far-future deadline still expired: %d steps, want %d",
			w.Stats.Steps, full.Stats.Steps)
	}
}

// TestAskAllAnchorsTimeLimitAtSubmission pins the queue-wait bugfix:
// per-job TimeLimits anchor at the AskAll call, so a job that waits in
// the slot queue behind another job pays for the wait. Two identical
// jobs share one submission instant on the session's fake clock; with
// Workers=1 the second starts after the first has consumed clock time,
// so it must get strictly fewer steps in before the shared deadline.
func TestAskAllAnchorsTimeLimitAtSubmission(t *testing.T) {
	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Workers = 1
	s := NewSession(f.G, cfg)
	s.clock = fakeClock(time.Millisecond)

	job := BatchJob{Q: f.Q, E: f.E, TimeLimit: 10 * time.Millisecond}
	results, stats := s.AskAll([]BatchJob{job, job})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Answer.Query == nil || r.Steps < 1 {
			t.Fatalf("job %d: empty outcome %+v", i, r)
		}
	}
	if results[1].Steps >= results[0].Steps {
		t.Errorf("queued job was not charged its wait: %d steps vs %d for the first job",
			results[1].Steps, results[0].Steps)
	}
	if stats.Failed != 0 || stats.Jobs != 2 {
		t.Errorf("stats = %+v", stats)
	}

	// An explicit absolute Deadline wins over the anchored TimeLimit:
	// with a far-future deadline the same queued job runs unclamped.
	free := job
	free.Deadline = time.Unix(0, 0).Add(time.Hour)
	results2, _ := s.AskAll([]BatchJob{job, free})
	if results2[1].Err != nil {
		t.Fatalf("free job: %v", results2[1].Err)
	}
	if results2[1].Steps <= results[1].Steps {
		t.Errorf("explicit Deadline did not override the anchored TimeLimit: %d steps vs %d clamped",
			results2[1].Steps, results[1].Steps)
	}
}

// TestTopKDeadlineDeterministic checks the best-first search against the
// same fake clock: expiry stops the traversal early and still returns
// the best rewrite found so far.
func TestTopKDeadlineDeterministic(t *testing.T) {
	f := datagen.NewFig1()

	full, err := NewWhy(f.G, f.Q, f.E, DefaultConfig())
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	full.AnsW()

	cfg := DefaultConfig()
	cfg.TimeLimit = 10 * time.Millisecond
	w, err := NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	w.clock = fakeClock(4 * time.Millisecond)
	ans := w.AnsW()

	if w.Stats.Steps >= full.Stats.Steps {
		t.Fatalf("deadline did not cut the search: %d steps, unlimited run %d",
			w.Stats.Steps, full.Stats.Steps)
	}
	if ans.Query == nil {
		t.Fatal("anytime contract broken: no best-so-far answer returned")
	}
}

// TestRunTimesReadTheInjectedClock pins the one-clock bugfix: a run's
// origin is w.clock(), so Stats.Elapsed and every trajectory sample must
// be differences on that clock, never the wall clock's distance from a
// fake origin. It also pins the one deadline anchor: the run reads the
// clock once at its start, for the origin and the deadline alike. With
// no deadline set the only reads are the origin, one per trajectory
// sample and the final stamp, so under a clock that advances one step
// per read the expected values are exact.
func TestRunTimesReadTheInjectedClock(t *testing.T) {
	const step = time.Millisecond
	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Budget = 4
	for _, tc := range []struct {
		name string
		run  func(*Why)
	}{
		{"AnsW", func(w *Why) { w.AnsW() }},
		{"AnsHeu", func(w *Why) { w.AnsHeu(3) }},
		{"ApxWhyM", func(w *Why) { w.ApxWhyM() }},
		{"AnsWE", func(w *Why) { w.AnsWE() }},
		{"FMAnsW", func(w *Why) { w.FMAnsW() }},
	} {
		name := tc.name
		w, err := NewWhy(f.G, f.Q, f.E, cfg)
		if err != nil {
			t.Fatalf("NewWhy: %v", err)
		}
		w.clock = fakeClock(step)
		tc.run(w)
		n := len(w.Stats.Trajectory)
		if n == 0 {
			t.Fatalf("%s: empty trajectory, the test checks nothing", name)
		}
		for i, s := range w.Stats.Trajectory {
			// Reads before sample i: the origin, i samples.
			if want := time.Duration(i+1) * step; s.At != want {
				t.Errorf("%s: Trajectory[%d].At = %v, want %v", name, i, s.At, want)
			}
		}
		if want := time.Duration(n+1) * step; w.Stats.Elapsed != want {
			t.Errorf("%s: Elapsed = %v, want %v", name, w.Stats.Elapsed, want)
		}
	}
}

// TestCandidateLoopsPollTheRun pins the per-candidate polls of the work
// that evaluates nothing: AnsWE's plan building (a ball per relevant
// candidate) and FMAnsW's feature mining (two balls per candidate). The
// fake clock advances 4ms per read against a 6ms limit anchored at the
// first read, so the second read is in time and the third is not. The
// first candidate's poll takes the second read, and whatever comes next
// — the next candidate's poll or the first claim — the third: the run
// stops after its root. Without those polls the first evaluation's claim
// would take the second read, in time, and would run.
func TestCandidateLoopsPollTheRun(t *testing.T) {
	f := datagen.NewFig1()
	cfg := DefaultConfig()
	cfg.Budget = 4
	cfg.TimeLimit = 6 * time.Millisecond
	for _, tc := range []struct {
		name string
		run  func(*Why)
	}{
		{"AnsWE", func(w *Why) { w.AnsWE() }},
		{"FMAnsW", func(w *Why) { w.FMAnsW() }},
	} {
		w, err := NewWhy(f.G, f.Q, f.E, cfg)
		if err != nil {
			t.Fatalf("NewWhy: %v", err)
		}
		w.clock = fakeClock(4 * time.Millisecond)
		tc.run(w)
		if w.Stats.Steps != 1 || w.Stats.Stop != StopDeadline {
			t.Errorf("%s: stopped %q after %d steps, want %q after the root", tc.name, w.Stats.Stop, w.Stats.Steps, StopDeadline)
		}
	}
}
