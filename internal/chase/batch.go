package chase

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"wqe/internal/exemplar"
	"wqe/internal/jsonscan"
	"wqe/internal/par"
	"wqe/internal/query"
)

// BatchJob is one Why-question in a cross-question batch: the (query,
// exemplar) pair plus optional per-job overrides of the session's
// search limits.
type BatchJob struct {
	Q *query.Query
	E *exemplar.Exemplar

	// Algo selects the algorithm: "" or "answ" runs the exact anytime
	// AnsW (unless Beam > 0, which keeps the historical meaning of a
	// bare Beam field and runs AnsHeu), "heu" runs the beam search,
	// "whymany" runs ApxWhyM, "whyempty" runs AnsWE, and "fmansw" runs
	// the mining baseline. Unknown values fail the job in its slot.
	Algo string

	// Beam selects the beam width for "heu" (default 3). With Algo
	// empty, any positive Beam runs AnsHeu — the pre-Algo contract.
	Beam int

	// MaxSteps, when positive, lowers the session config's per-job step
	// budget to it; it never raises it.
	MaxSteps int

	// TimeLimit, when positive, overrides the session config's per-job
	// deadline. Deadlines are anytime cutoffs: the job still returns its
	// best rewrite so far. AskAll anchors the limit at *submission* —
	// the moment the batch is handed over — so time the job spends
	// queued behind other jobs counts against it (the queue-wait
	// bugfix); an explicit Deadline below wins over this.
	TimeLimit time.Duration

	// Deadline, when non-zero, is this job's absolute cutoff on the
	// session clock. It wins over TimeLimit. Servers set it from the
	// request's submission time plus the request budget.
	Deadline time.Time

	// Cancel, when non-nil, stops this job's search when closed (the
	// job reports ErrCancelled if AskAll had not started it, or its
	// best-so-far answer if it was already running). It overrides the
	// session config's Limits.Cancel. A batch is cancelled by giving
	// each of its jobs the one channel.
	Cancel <-chan struct{}
}

// DecodeJob reads one job object from r into j in one pass, its query
// and exemplar decoded where they stand, whatever the order of the keys.
// It is the one reading of a question on the wire, for wqe-serve's
// requests and cmd/wqe's jobs files alike:
//
//	{"query": {...}, "exemplar": {...}, "algo": "answ",
//	 "beam": 0, "max_steps": 0, "time_limit_ms": 0}
//
// The query and exemplar are the documents query.DecodeJSON and
// exemplar.DecodeJSON read. "algo", "beam" and "max_steps" fill the
// fields of those names, and "time_limit_ms" fills TimeLimit. It reads as
// encoding/json decoded the object into a struct whose query and
// exemplar were RawMessages, parsed afterwards: keys match
// case-insensitively, other keys are skipped, a key given twice takes its
// last value, null leaves a field as it was, and reading stops at the end
// of the value.
//
// field, when not nil, sees each key first: it reads the value and
// reports true, or reports false and leaves the value to DecodeJob.
// wqe-serve reads "graph" there; cmd/wqe reads a string "query" or
// "exemplar" as a file path.
//
// err is the input's own: it is not JSON, or a field holds a value of
// the wrong kind (kept in types, as encoding/json kept the first). bad is
// what is wrong with the question: no query or exemplar, one that does
// not parse, a pattern over MaxJobNodes nodes or MaxJobEdges edges, or an
// exemplar of more than exemplar.MaxTuples tuples, which no evaluation
// admits.
func DecodeJob(r *jsonscan.Reader, j *BatchJob, types *jsonscan.Sticky, field func(key []byte) (bool, error)) (bad, err error) {
	var qErr, eErr error
	limitMS := int(j.TimeLimit / time.Millisecond)
	err = r.Struct(func(key []byte) error {
		if field != nil {
			if ok, err := field(key); ok || err != nil {
				return err
			}
		}
		switch {
		case jsonscan.FieldIs(key, "query"):
			j.Q, qErr = query.DecodeJSON(r)
			return notJSON(qErr)
		case jsonscan.FieldIs(key, "exemplar"):
			j.E, eErr = exemplar.DecodeJSON(r)
			return notJSON(eErr)
		case jsonscan.FieldIs(key, "algo"):
			return types.Keep(r.String(&j.Algo))
		case jsonscan.FieldIs(key, "beam"):
			return types.Keep(r.Int(&j.Beam))
		case jsonscan.FieldIs(key, "max_steps"):
			return types.Keep(r.Int(&j.MaxSteps))
		case jsonscan.FieldIs(key, "time_limit_ms"):
			return types.Keep(r.Int(&limitMS))
		}
		return r.Skip(r.Depth())
	})
	j.TimeLimit = time.Duration(limitMS) * time.Millisecond
	// A document key read leaves the document or its decoder's error.
	switch {
	case j.Q == nil && qErr == nil, j.E == nil && eErr == nil:
		bad = errors.New("request needs both \"query\" and \"exemplar\"")
	case j.Q == nil:
		bad = fmt.Errorf("parse query: %w", qErr)
	case j.E == nil:
		bad = fmt.Errorf("parse exemplar: %w", eErr)
	case len(j.Q.Nodes) > MaxJobNodes || len(j.Q.Edges) > MaxJobEdges:
		bad = fmt.Errorf("pattern too large: %d nodes and %d edges, at most %d and %d",
			len(j.Q.Nodes), len(j.Q.Edges), MaxJobNodes, MaxJobEdges)
	case len(j.E.Tuples) > exemplar.MaxTuples:
		bad = fmt.Errorf("exemplar too large: %d tuples, at most %d", len(j.E.Tuples), exemplar.MaxTuples)
	}
	return bad, types.Keep(err)
}

// MaxJobNodes and MaxJobEdges cap the pattern of a job read off the wire.
// Star decomposition is cubic in the pattern's size (a 400-node chain
// costs tens of milliseconds per evaluation, 800 nodes half a second), no
// evaluation can be interrupted by the job's time limit, and a body of a
// few megabytes spells tens of thousands of nodes. The paper's patterns
// have a handful of nodes; the caps leave room for ten times more.
const (
	MaxJobNodes = 64
	MaxJobEdges = 128
)

// notJSON passes on the error of a document decoder only when the input
// is not JSON — the decoders return that *jsonscan.Error unwrapped —: it
// ends the job's decoding, where an error about the document is the
// job's bad.
func notJSON(err error) error {
	if _, ok := err.(*jsonscan.Error); ok {
		return err
	}
	return nil
}

// resolveAlgo is the one reading of the Algo/Beam pair: the search
// runJob dispatches to and the name the answer memo keys on, so the
// memo can never serve one algorithm's answer for another. beam is set
// for "heu" only; ok is false for an unknown Algo.
func (j BatchJob) resolveAlgo() (algo string, beam int, ok bool) {
	switch {
	case j.Algo == "" && j.Beam > 0, j.Algo == "heu":
		beam = j.Beam
		if beam < 1 {
			beam = 3
		}
		return "heu", beam, true
	case j.Algo == "", j.Algo == "answ":
		return "answ", 0, true
	case j.Algo == "whymany", j.Algo == "whyempty", j.Algo == "fmansw":
		return j.Algo, 0, true
	}
	return "", 0, false
}

// AlgoName is the name of the search the job runs, as resolveAlgo
// reads it: "heu" for a beam without an Algo, "answ" for neither, ""
// for an unknown Algo.
func (j BatchJob) AlgoName() string {
	algo, _, _ := j.resolveAlgo()
	return algo
}

// BatchResult is one job's outcome, reported in submission order.
// Answer, Steps, and States are deterministic — byte-identical to
// running the same job alone, for any worker count — while Elapsed is
// wall-clock and carries no determinism contract. Stop is the run's
// Stats.Stop: why the search ended.
type BatchResult struct {
	Answer  Answer
	Err     error
	Steps   int
	States  int
	Stop    string
	Elapsed time.Duration
}

// BatchStats aggregates one AskAll call.
type BatchStats struct {
	Jobs      int   // jobs submitted
	Failed    int   // jobs that returned an error
	Cancelled int   // jobs that never started because the batch was cancelled
	Workers   int   // resolved Config.Workers: the bound on jobs run at once
	Steps     int64 // total simulated Q-Chase steps across all jobs
	States    int64 // total frontier states pushed across all jobs

	// CacheHits/CacheMisses are the shared star-view cache's deltas over
	// the batch. Under concurrent jobs the split between two jobs racing
	// for the same star is timing-dependent, so these are reported only
	// in aggregate — per-job cache numbers would be nondeterministic.
	CacheHits, CacheMisses int64

	Elapsed time.Duration // wall-clock of the whole batch
}

// ErrCancelled marks a batch job that was cancelled before its search
// started. A job cancelled *mid-search* is not an error: it returns its
// best-so-far rewrite like any other anytime cutoff.
const ErrCancelled = chaseError("chase: job cancelled before start")

// AskAll answers a batch of Why-questions concurrently over the
// session's shared graph and star-view cache. It runs up to
// Config.Workers jobs at once (0: one per logical CPU), never more than
// there are jobs, each on one goroutine.
//
// Jobs are claimed dynamically, but results commit into submission-
// order slots: results[i] is jobs[i]'s outcome no matter which worker
// ran it or when it finished. Each job's Answer/Steps/States are
// byte-identical to a sequential loop over the same jobs for any worker
// count — a job's search never reads another job's results, and the
// star-view cache can only change which builds are shared, never what a
// star table contains. One failing job does not disturb the others; its
// error is reported in its slot and counted in BatchStats.Failed.
//
// Per-job TimeLimits anchor at the batch's submission instant (the
// AskAll call), not at each job's own start: a job that waits behind
// others in the slot queue pays for the wait. Jobs that need a shared
// wall-clock budget across the whole batch set Deadline instead. A job
// whose Cancel is closed before a worker claims it fails fast with
// ErrCancelled in its slot; one closed while it runs stops it within
// one step with its best rewrite so far.
func (s *Session) AskAll(jobs []BatchJob) ([]BatchResult, BatchStats) {
	submit := s.clock()
	h0, m0 := s.CacheStats()

	results := make([]BatchResult, len(jobs))
	workers := par.Workers(s.Cfg.Workers)
	par.ForEach(workers, len(jobs), func(i int) {
		if cancelled(jobs[i].Cancel) {
			results[i] = BatchResult{Err: ErrCancelled}
			return
		}
		results[i], _ = s.runMemo(jobs[i], submit)
	})

	stats := BatchStats{Jobs: len(jobs), Workers: workers}
	for i := range results {
		switch results[i].Err {
		case nil:
		case ErrCancelled:
			stats.Cancelled++
			stats.Failed++
		default:
			stats.Failed++
		}
		stats.Steps += int64(results[i].Steps)
		stats.States += int64(results[i].States)
	}
	h1, m1 := s.CacheStats()
	stats.CacheHits, stats.CacheMisses = h1-h0, m1-m0
	stats.Elapsed = s.clock().Sub(submit)
	return results, stats
}

// Run answers one job immediately against the session's shared state,
// with the job's cancel signal and deadline applied and its TimeLimit
// anchored now — the single-question entry point a server calls per
// request, and the one Ask, AskFast and AskMultiFocus call. Queue wait
// before this call is the caller's to account for (set Deadline at
// admission). With Engine.AnswerCacheCap set, identical jobs are served
// from the answer memo (see memo.go): hits skip the chase entirely and
// concurrent identical requests coalesce onto one.
func (s *Session) Run(j BatchJob) BatchResult {
	res, _ := s.runMemo(j, s.clock())
	return res
}

// cancelled polls a cancel channel without blocking; nil never cancels.
func cancelled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// limits resolves the Limits a job runs under: the session's, with the
// job's overrides applied and a relative time limit converted into an
// absolute deadline anchored at submission. A run gives Deadline
// precedence over TimeLimit, so a queued job's wait is not free time.
func (j BatchJob) limits(l Limits, submit time.Time) Limits {
	if j.TimeLimit > 0 {
		l.TimeLimit = j.TimeLimit
	}
	switch {
	case !j.Deadline.IsZero():
		l.Deadline = j.Deadline
	case l.TimeLimit > 0:
		l.Deadline = submit.Add(l.TimeLimit)
	}
	l.Cancel = cmp.Or(j.Cancel, l.Cancel)
	return l
}

// runJob compiles and runs one batch job against the session's shared
// state; it is the only code in Session that does, whichever front door
// the job came in by, and it counts the question. submit is the instant
// the job was handed over (the AskAll call or the server's admission),
// anchoring relative time limits so queue wait is charged to the job.
// detached clears the Limits
// (MaxSteps still bounds the search) — the answer memo runs its
// singleflight chases detached so the stored answer is a pure function
// of the question, not of whichever waiter's deadline happened to own
// the flight.
func (s *Session) runJob(j BatchJob, submit time.Time, detached bool) BatchResult {
	if j.Q == nil || j.E == nil {
		return BatchResult{Err: errNilJob}
	}
	cfg := s.Cfg
	cfg.Search = s.search(j)
	if detached {
		cfg.Limits = Limits{}
	} else {
		cfg.Limits = j.limits(cfg.Limits, submit)
	}
	w, err := newWhyWith(s, j.Q, j.E, cfg)
	if err != nil {
		return BatchResult{Err: err}
	}
	algo, beam, ok := j.resolveAlgo()
	if !ok {
		return BatchResult{Err: chaseError("chase: unknown batch algo " + j.Algo)}
	}
	var a Answer
	switch algo {
	case "heu":
		a = w.AnsHeu(beam)
	case "answ":
		a = w.AnsW()
	case "whymany":
		a = w.ApxWhyM()
	case "whyempty":
		a = w.AnsWE()
	case "fmansw":
		a = w.FMAnsW()
	}
	s.questions.Add(1)
	s.steps.Add(int64(w.Stats.Steps))
	return BatchResult{
		Answer:  a,
		Steps:   w.Stats.Steps,
		States:  w.Stats.States,
		Stop:    w.Stats.Stop,
		Elapsed: w.Stats.Elapsed,
	}
}
