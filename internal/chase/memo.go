package chase

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
	"time"

	"wqe/internal/anscache"
)

// This file is the session's answer memo: the serving-path cache that
// stops identical Why-questions from recomputing identical chases.
// Every question a Session runs (Run, RunBody, AskAll, and the Ask
// doors, which call Run) goes through runMemo, which keys each job by a
// canonical digest of everything that determines its answer — graph
// identity, resolved algorithm, query, exemplar, and the job's Search —
// and shares one singleflight chase among identical concurrent requests
// (internal/anscache holds the stripe discipline).
//
// The key is the Search by construction: Engine knobs cannot change an
// answer, and a memoized chase runs with its Limits cleared (bounded
// only by MaxSteps), so the stored answer is a pure function of the key
// and one waiter's disconnect can never truncate the answer every other
// waiter receives. The trade-off is anytime semantics: a
// deadline-limited request served from the memo gets the complete
// answer rather than a best-so-far cut, which is never worse for the
// caller but is observable. Callers that need exact per-call anytime
// behavior leave Engine.AnswerCacheCap at 0.

// keySep ends each of the key's leading fields; it cannot appear in
// them (numbers and algorithm names), and the query and exemplar keys
// that follow are self-delimiting, so the concatenation is unambiguous.
const keySep = "\x1f"

// appendKey appends every Search field to dst, each followed by keySep:
// the one list of what an answer depends on besides the question.
func (c Search) appendKey(dst []byte) []byte {
	dst = append(strconv.AppendInt(dst, int64(c.MaxSteps), 10), keySep...)
	dst = append(strconv.AppendFloat(dst, c.Budget, 'g', -1, 64), keySep...)
	dst = append(strconv.AppendInt(dst, int64(c.MaxBound), 10), keySep...)
	dst = append(strconv.AppendFloat(dst, c.Theta, 'g', -1, 64), keySep...)
	dst = append(strconv.AppendFloat(dst, c.Lambda, 'g', -1, 64), keySep...)
	dst = append(strconv.AppendBool(dst, c.Prune), keySep...)
	dst = append(strconv.AppendInt(dst, int64(c.MaxAnalysis), 10), keySep...)
	return append(strconv.AppendInt(dst, c.Seed, 10), keySep...)
}

// search resolves the Search a job runs under: the session's, with the
// step cap lowered to the job's MaxSteps when that is smaller. A job can
// never raise it: a memoized flight runs detached with its Limits
// cleared, so the session's MaxSteps is all that bounds it.
func (s *Session) search(j BatchJob) Search {
	sr := s.Cfg.Search
	if j.MaxSteps > 0 {
		sr.MaxSteps = min(sr.MaxSteps, j.MaxSteps)
	}
	return sr
}

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
	return jobDigest(s.G.UID(), algo, beam, s.search(j), j), true
}

// jobDigest hashes one job's key parts: the graph uid, the resolved
// algorithm (with its beam for "heu"), the Search, the query and the
// exemplar. Most keys fit the stack buffer, so the returned string is
// the only allocation.
func jobDigest(uid uint64, algo string, beam int, sr Search, j BatchJob) string {
	var buf [512]byte
	b := append(strconv.AppendUint(buf[:0], uid, 16), keySep...)
	b = append(b, algo...)
	if algo == "heu" {
		b = strconv.AppendInt(append(b, ':'), int64(beam), 10)
	}
	b = sr.appendKey(append(b, keySep...))
	sum := sha256.Sum256(j.E.AppendKey(j.Q.AppendKey(b)))
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// Body variants: the two ways a server sends one answer, plain or with
// its explanation. Each answer-memo entry holds at most one body per
// variant.
const (
	BodyPlain = iota
	BodyExplained
	numBodies
)

// A Body is a rendered response kept with the answer-memo entry it was
// rendered from, so every later hit sends it as it is. Bytes is an
// exact-size copy of what the renderer returned; Length is its length
// in decimal, a one-element header value made once. Both are read-only:
// every hit on the entry shares them.
type Body struct {
	Bytes  []byte
	Length []string
}

// memoEntry is one answer-memo value: the job's result and the bodies
// rendered from it. A body is a pure function of the entry plus
// constants of the session (the graph, the name a server gives it) and
// the variant, so it lives and dies with the entry: eviction drops both.
type memoEntry struct {
	res    BatchResult
	bodies [numBodies]bodySlot
}

// bodySlot holds one variant's body, rendered at most once: the first
// hit on the entry that asks for the variant renders it under once,
// and every later hit reads body after once.Do returns. body stays nil
// when the render failed.
type bodySlot struct {
	once sync.Once
	body *Body
}

// body returns the entry's stored body for variant, rendering it from
// the entry's result on the variant's first call. A nil render result
// stores nothing, and no later call renders again.
func (e *memoEntry) body(s *Session, variant int, render func(BatchResult) []byte) *Body {
	sl := &e.bodies[variant]
	sl.once.Do(func() {
		b := render(e.res)
		if b == nil {
			return
		}
		kept := make([]byte, len(b))
		copy(kept, b)
		sl.body = &Body{Bytes: kept, Length: []string{strconv.Itoa(len(kept))}}
		s.bodies.Add(1)
	})
	return sl.body
}

// RunBody is Run for a caller that sends each answer as rendered bytes,
// as wqe-serve's single-question endpoints do. On an answer-memo hit it
// returns the hit entry's body for variant (BodyPlain or BodyExplained),
// which render makes from the entry's result on the variant's first hit
// and the entry keeps until it is evicted. render must be a pure
// function of the result plus constants of the session and the variant,
// since every later hit gets its bytes; it returns nil when it cannot
// render, and then the entry stores nothing. body is nil on a miss, a
// coalesced wait, an error or with the memo off: the caller renders res
// itself, so a question asked once never stores a body.
func (s *Session) RunBody(j BatchJob, variant int, render func(BatchResult) []byte) (res BatchResult, body *Body) {
	res, hit := s.runMemo(j, s.clock())
	if hit != nil {
		body = hit.body(s, variant, render)
	}
	return res, body
}

// runMemo is the memo-aware front of runJob. With the answer cache off
// (or for jobs the memo cannot key) it is runJob verbatim. With it on,
// identical jobs coalesce onto one detached chase and hits return the
// stored result without touching the search at all — the session's
// Questions counter therefore counts *chases executed*, which is the
// counting oracle the coalescing tests assert against. hit is the
// memo entry when the result was resident, nil otherwise.
func (s *Session) runMemo(j BatchJob, submit time.Time) (res BatchResult, hit *memoEntry) {
	if s.ans == nil || j.Q == nil || j.E == nil || s.Cfg.OnImprove != nil {
		// No memo, unanswerable job (runJob reports errNilJob), or a
		// streaming OnImprove hook that must observe every improvement.
		return s.runJob(j, submit, false), nil
	}
	key, ok := s.answerKey(j)
	if !ok {
		return s.runJob(j, submit, false), nil
	}
	e, outcome := s.ans.GetOrCompute(key, func() (*memoEntry, bool) {
		// Detached flight: Limits cleared (see file comment), so the
		// stored answer is complete and deterministic. Errors are
		// delivered to every coalesced waiter but never stored — the
		// next identical request retries.
		r := s.runJob(j, submit, true)
		return &memoEntry{res: r}, r.Err == nil
	})
	if outcome == anscache.Hit {
		hit = e
	}
	return e.res, hit
}
