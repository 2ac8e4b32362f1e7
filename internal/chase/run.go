package chase

import (
	"time"

	"wqe/internal/match"
)

// Why a run ended, as Stats.Stop reports it.
const (
	StopDone      = "done"      // the search ran out of work
	StopSteps     = "steps"     // MaxSteps steps were claimed
	StopDeadline  = "deadline"  // Deadline or TimeLimit passed
	StopCancelled = "cancelled" // Limits.Cancel was closed
)

// run is one algorithm run, the one contract every Q-Chase search
// starts, stops and reports by: it claims the steps, polls the deadline
// and cancel signal, records why it stopped, reports improvements, and
// holds the generation scratch borrowed from the session. Every
// algorithm entry point starts one and defers its end. A run is on one
// goroutine, so Stats, which it writes, needs no lock.
type run struct {
	w        *Why
	start    time.Time
	deadline time.Time // zero when unlimited
	maxSteps int
	cancel   <-chan struct{}
}

// startRun resets Stats, borrows a generation scratch and anchors the
// deadline once, at the run's start. An explicit Deadline wins over
// TimeLimit: a relative limit anchored here cannot charge for time
// spent queued, an absolute deadline fixed at submission can.
func (w *Why) startRun() *run {
	r := &run{w: w, start: w.clock(), deadline: w.Cfg.Deadline,
		maxSteps: w.Cfg.MaxSteps, cancel: w.Cfg.Cancel}
	if r.deadline.IsZero() && w.Cfg.TimeLimit > 0 {
		r.deadline = r.start.Add(w.Cfg.TimeLimit)
	}
	w.Stats = Stats{}
	if w.gs == nil {
		w.gs = w.gens.Get().(*genScratch)
	}
	return r
}

// root claims and evaluates the question's own query. Its claim is
// never refused, so every algorithm has an answer to return.
func (r *run) root() (Answer, *match.Result) {
	r.w.Stats.Steps++
	return r.w.evaluate(nil, r.w.Q, nil)
}

// more polls the run: it reports false, and records why in Stats.Stop,
// once MaxSteps steps are claimed, the deadline has passed or the
// question is cancelled. A stopped run stays stopped. Loops whose work
// evaluates nothing poll it too.
func (r *run) more() bool {
	st := &r.w.Stats
	switch {
	case st.Stop != "":
	case st.Steps >= r.maxSteps:
		st.Stop = StopSteps
	case !r.deadline.IsZero() && r.w.clock().After(r.deadline):
		st.Stop = StopDeadline
	case cancelled(r.cancel):
		st.Stop = StopCancelled
	default:
		return true
	}
	return false
}

// claim claims one Q-Chase step (one evaluation) before it runs. It is
// refused once the run has stopped (more).
func (r *run) claim() bool {
	if !r.more() {
		return false
	}
	r.w.Stats.Steps++
	return true
}

// improve reports a new best answer: a trajectory sample on the run's
// clock, and the OnImprove hook.
func (r *run) improve(best Answer) {
	st := &r.w.Stats
	st.Trajectory = append(st.Trajectory, Sample{At: r.w.clock().Sub(r.start), Closeness: best.Closeness})
	if r.w.Cfg.OnImprove != nil {
		r.w.Cfg.OnImprove(best)
	}
}

// end closes the run: a run nothing stopped is done. It stamps the
// elapsed time and cache counters, and gives the scratch back unless a
// generator call on it never returned: a run that panicked (end is
// deferred) drops a busy scratch, so no later question meets its
// half-reset tables.
func (r *run) end() {
	w := r.w
	if w.Stats.Stop == "" {
		w.Stats.Stop = StopDone
	}
	w.Stats.Elapsed = w.clock().Sub(r.start)
	w.Stats.CacheHits, w.Stats.CacheMiss = cacheStats(w.Matcher.Cache)
	if sc := w.gs; sc != nil {
		w.gs = nil
		if !sc.busy {
			w.gens.Put(sc)
		}
	}
}
