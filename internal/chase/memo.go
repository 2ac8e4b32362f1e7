package chase

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"time"
)

// This file is the session's answer memo: the serving-path cache that
// stops identical Why-questions from recomputing identical chases.
// Session.Run and AskAll route batch jobs through runMemo, which keys
// each job by a canonical digest of everything that determines its
// answer — graph identity, resolved algorithm, query, exemplar, and
// every search knob — and shares one singleflight chase among identical
// concurrent requests (internal/anscache holds the stripe discipline).
//
// Deadlines, time limits, and cancel signals are deliberately EXCLUDED
// from both the key and the flight: a memoized chase runs detached
// (bounded only by MaxSteps), so the stored answer is a pure function
// of the key and one waiter's disconnect can never truncate the answer
// every other waiter receives. The trade-off is anytime semantics: a
// deadline-limited request served from the memo gets the complete
// answer rather than a best-so-far cut, which is never worse for the
// caller but is observable. Callers that need exact per-call anytime
// behavior leave Config.AnswerCache off.

// keySep ends each of the key's leading fields; it cannot appear in
// them (numbers and algorithm names), and the query and exemplar keys
// that follow are self-delimiting, so the concatenation is unambiguous.
const keySep = "\x1f"

// answerKey builds the canonical digest for one batch job, or ok=false
// when the job must bypass the memo (unknown algo — let runJob report
// the error; memoizing errors would hide config typos behind hits).
func (s *Session) answerKey(j BatchJob) (key string, ok bool) {
	// "" with a positive beam and an explicit "heu" with the same beam
	// share an entry, as they share a search (see resolveAlgo).
	algo, beam, ok := j.resolveAlgo()
	if !ok {
		return "", false
	}
	if algo == "heu" {
		algo = "heu:" + strconv.Itoa(beam)
	}
	maxSteps := s.Cfg.MaxSteps
	if j.MaxSteps > 0 {
		maxSteps = j.MaxSteps
	}

	var buf [512]byte // most keys fit: nothing but the digest is allocated
	b := buf[:0]
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, part := range []string{
		strconv.FormatUint(s.G.UID(), 16),
		algo,
		strconv.Itoa(maxSteps),
		f(s.Cfg.Budget),
		strconv.Itoa(s.Cfg.MaxBound),
		f(s.Cfg.Theta),
		f(s.Cfg.Lambda),
		strconv.FormatBool(s.Cfg.Prune),
		strconv.Itoa(s.Cfg.MaxOpsPerClass),
		strconv.Itoa(s.Cfg.MaxAnalysis),
		strconv.FormatInt(s.Cfg.Seed, 10),
	} {
		b = append(append(b, part...), keySep...)
	}
	sum := sha256.Sum256(j.E.AppendKey(j.Q.AppendKey(b)))
	return hex.EncodeToString(sum[:]), true
}

// runMemo is the memo-aware front of runJob. With the answer cache off
// (or for jobs the memo cannot key) it is runJob verbatim. With it on,
// identical jobs coalesce onto one detached chase and hits return the
// stored result without touching the search at all — the session's
// Questions counter therefore counts *chases executed*, which is the
// counting oracle the coalescing tests assert against.
func (s *Session) runMemo(j BatchJob, submit time.Time, batchCancel <-chan struct{}) BatchResult {
	if s.ans == nil || j.Q == nil || j.E == nil || s.Cfg.OnImprove != nil {
		// No memo, unanswerable job (runJob reports errNilJob), or a
		// streaming OnImprove hook that must observe every improvement.
		return s.runJob(j, submit, batchCancel, false)
	}
	key, ok := s.answerKey(j)
	if !ok {
		return s.runJob(j, submit, batchCancel, false)
	}
	res, _ := s.ans.GetOrCompute(key, func() (BatchResult, bool) {
		// Detached flight: deadlines/cancel stripped (see file comment),
		// so the stored answer is complete and deterministic. Errors are
		// delivered to every coalesced waiter but never stored — the
		// next identical request retries.
		r := s.runJob(j, submit, nil, true)
		return r, r.Err == nil
	})
	return res
}

// InvalidateAnswers drops every memoized answer and fences in-flight
// chases from re-seeding the memo — the seam a future dynamic-graphs
// layer calls after each mutation batch. No-op without an answer cache.
func (s *Session) InvalidateAnswers() {
	if s.ans != nil {
		s.ans.InvalidateAll()
	}
}
