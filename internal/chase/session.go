package chase

import (
	"sync"
	"sync/atomic"
	"time"

	"wqe/internal/anscache"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/query"
)

// Session supports the exploratory-search workflow of Fig 3: a user
// iterates query → response → exemplar → rewrite over one graph, and
// each iteration is a new Why-question. The session owns the expensive
// per-graph state — the distance oracle and the star-view cache — so
// consecutive Why-questions reuse materialized star tables, which is
// exactly where the §5.2 cache pays off ("minimizing system response
// time between search sessions").
//
// A Session is safe for concurrent use: any number of goroutines may
// call Ask/AskFast/Why/Run/AskAll on one Session. The shared pieces are
// each internally synchronized (the star-view cache) or immutable after
// construction (the distance oracle, the warmed graph). Each question
// runs on the goroutine that asks it; AskAll runs up to Config.Workers
// of them side by side.
//
// A graph.Graph has no mutators, as the paper asks every question of
// one fixed G: star tables, memoized answers and the distance index are
// pure functions of it, and none of them is ever invalidated.
type Session struct {
	G     *graph.Graph
	Cfg   Config
	dist  distindex.Index
	cache *match.Cache

	// gens pools operator generation's scratch (genScratch): a running
	// question holds one, and a finished one gives it back for the next.
	gens sync.Pool

	// ans is the answer memo (Engine.AnswerCacheCap): finished batch-job
	// results keyed by canonical question digest, with singleflight
	// coalescing, each entry with the response bodies rendered from it.
	// nil when disabled. See memo.go.
	ans *anscache.Cache[*memoEntry]

	// questions/steps accumulate across every question the session ran
	// to completion: every chase runJob finished, whichever front door
	// asked it. They feed serving-layer stats; ranking never reads them.
	questions atomic.Int64
	steps     atomic.Int64
	// bodies counts response bodies stored in answer-memo entries.
	bodies atomic.Int64

	// clock feeds batch wall-clock statistics and submission-anchored
	// deadlines; tests substitute a fake to pin time plumbing.
	clock func() time.Time
}

// NewSession builds a session over g. The config's Budget/Theta/Lambda
// apply to every Ask unless overridden per call.
func NewSession(g *graph.Graph, cfg Config) *Session {
	return NewSessionWithIndex(g, cfg, nil)
}

// NewSessionWithIndex is NewSession with a caller-supplied distance
// oracle — typically one restored from a snapshot's embedded PLL
// labels, so cold start skips index construction entirely. idx must
// have been built over g (or a bit-identical restore of it); nil falls
// back to the automatic backend choice.
func NewSessionWithIndex(g *graph.Graph, cfg Config, idx distindex.Index) *Session {
	cfg.Search = cfg.Search.withDefaults()
	if idx == nil {
		idx = distindex.Auto(g)
	}
	s := &Session{
		G:    g,
		Cfg:  cfg,
		dist: idx,
		//lint:ignore detsource injectable-clock default; only stats and anytime deadline cutoffs read it, never ranking
		clock: time.Now,
	}
	s.gens.New = func() any { return new(genScratch) }
	if cfg.CacheCap > 0 {
		s.cache = anscache.New[*match.StarTable](cfg.CacheCap, 0)
	}
	if cfg.AnswerCacheCap > 0 {
		s.ans = anscache.New[*memoEntry](cfg.AnswerCacheCap, 0)
	}
	return s
}

// Why compiles one Why-question against the session's shared state: the
// prebuilt distance oracle and the shared star-view cache.
func (s *Session) Why(q *query.Query, e *exemplar.Exemplar) (*Why, error) {
	return newWhyWith(s, q, e, s.Cfg)
}

// Ask answers one Why-question with AnsW. It is public API, as
// wqe.Session's Ask; nothing in the module but tests calls it. It is
// Run of the bare job, so it shares Run's rules: the answer memo when
// Engine.AnswerCacheCap is set, and a TimeLimit anchored at the call.
// The returned Answer's Diff carries the lineage to present to the user.
func (s *Session) Ask(q *query.Query, e *exemplar.Exemplar) (Answer, error) {
	res := s.Run(BatchJob{Q: q, E: e})
	return res.Answer, res.Err
}

// AskFast is Ask with the beam heuristic, for interactive response
// times. A beam below 1 searches with beam 1.
func (s *Session) AskFast(q *query.Query, e *exemplar.Exemplar, beam int) (Answer, error) {
	res := s.Run(BatchJob{Q: q, E: e, Algo: "heu", Beam: max(beam, 1)})
	return res.Answer, res.Err
}

// CacheStats reports the session star cache's cumulative hits and
// misses. Counters exposes the full per-counter set.
func (s *Session) CacheStats() (hits, misses int64) {
	return cacheStats(s.cache)
}

// cacheStats folds a star cache's counters into the (hits, misses) pair
// Stats, BatchStats and CacheStats report: a miss is any lookup that
// found no resident table, whether it built the table (Misses) or
// joined another worker's in-flight build (Coalesced), so hit ratios
// mean the same at every worker count. A nil cache reports zeros.
func cacheStats(c *match.Cache) (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	k := c.Counters()
	return k.Hits, k.Misses + k.Coalesced
}

// SessionCounters is the session's cumulative effort and cache counter
// snapshot — the payload a serving layer's /stats endpoint reports per
// resident graph. Everything is observability-only: ranking never reads
// any of it.
type SessionCounters struct {
	// Questions counts Why-questions the session ran to completion;
	// Steps totals their simulated Q-Chase steps (query evaluations).
	Questions int64 `json:"questions"`
	Steps     int64 `json:"steps"`
	// Cache is the shared star-view cache's full counter set (zero
	// values when the session runs uncached). Misses counts star tables
	// built; a worker that joined another's in-flight build is Coalesced.
	Cache anscache.Counters `json:"cache"`
	// AnswerCache is the answer memo's counter set (zero values when
	// Engine.AnswerCacheCap is 0). Hits+Misses+Coalesced equals the
	// number of memo-eligible jobs served; Questions above counts only
	// the chases actually executed (the misses).
	AnswerCache anscache.Counters `json:"answer_cache"`
	// AnswerBodies counts the response bodies stored in answer-memo
	// entries (RunBody), at most one per entry and variant, each on the
	// entry's first hit for its variant. It only grows: an evicted
	// entry's bodies go with it, uncounted.
	AnswerBodies int64 `json:"answer_bodies"`
}

// Counters snapshots the session's cumulative counters lock-free.
func (s *Session) Counters() SessionCounters {
	c := SessionCounters{
		Questions:    s.questions.Load(),
		Steps:        s.steps.Load(),
		AnswerBodies: s.bodies.Load(),
	}
	if s.cache != nil {
		c.Cache = s.cache.Counters()
	}
	if s.ans != nil {
		c.AnswerCache = s.ans.Counters()
	}
	return c
}

// MultiFocusAnswer pairs one focus node with its rewrite.
type MultiFocusAnswer struct {
	Focus  query.NodeID
	Answer Answer
}

// AskMultiFocus answers a Why-question whose query designates several
// focus nodes (Appendix B "Queries with multiple focus nodes"): each
// focus u_i is chased independently against its exemplar E_i — the
// union exemplar keeps rep(E, V) unchanged per the appendix — and the
// per-focus rewrites are returned together. foci and exemplars are
// parallel slices.
//
// The foci run one after another, each a Run through the session's
// shared distance oracle and star-view cache: they share star tables the
// same way consecutive session questions do, and an OnImprove hook is
// never called from two goroutines at once.
func (s *Session) AskMultiFocus(q *query.Query, foci []query.NodeID,
	exemplars []*exemplar.Exemplar) ([]MultiFocusAnswer, error) {

	if len(foci) != len(exemplars) {
		return nil, errFociMismatch
	}
	out := make([]MultiFocusAnswer, 0, len(foci))
	for i, u := range foci {
		qi := q.Clone()
		qi.Focus = u
		res := s.Run(BatchJob{Q: qi, E: exemplars[i]})
		if res.Err != nil {
			return nil, res.Err
		}
		out = append(out, MultiFocusAnswer{Focus: u, Answer: res.Answer})
	}
	return out, nil
}

type chaseError string

func (e chaseError) Error() string { return string(e) }

const errFociMismatch = chaseError("chase: foci and exemplars must be parallel slices")

const errNilJob = chaseError("chase: batch job needs both a query and an exemplar")
