// Package chase implements the paper's primary contribution: Q-Chase
// (Section 4), a Chase process over pattern queries guided by exemplar
// constraints, and the Q-Chase-based algorithms of Sections 5–6:
//
//   - AnsW — anytime exact best-first search with backtracking, picky
//     operator generation, star-view caching, and cl⁺ pruning (Fig 5);
//   - AnsHeu / AnsHeuB — tunable beam-search heuristics (§5.5);
//   - ApxWhyM — fixed-parameter approximation for Why-Many (§6.1);
//   - AnsWE — PTIME removal-only algorithm for Why-Empty (§6.1);
//   - FMAnsW — the frequent-pattern-mining comparison baseline (§7);
//   - top-k query suggestion (§6.2) and differential-table lineage.
package chase

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// Relevance classifies a focus candidate w.r.t. an exemplar and a query
// answer (the RM/IM/RC/IC table of §2.2).
type Relevance uint8

// Relevance classes.
const (
	RM Relevance = iota // relevant match:   v ∈ Q(G) ∧ v ∈ rep(E,V)
	IM                  // irrelevant match: v ∈ Q(G) ∧ v ∉ rep(E,V)
	RC                  // relevant cand.:   v ∉ Q(G) ∧ v ∈ rep(E,V)
	IC                  // irrelevant cand.: v ∉ Q(G) ∧ v ∉ rep(E,V)
)

// String renders the relevance class.
func (r Relevance) String() string {
	return [...]string{"RM", "IM", "RC", "IC"}[r]
}

// Config tunes the Q-Chase algorithms. Its three parts say what each
// knob may change: the Search decides which rewrite a question gets,
// the Engine only how fast it arrives, and the Limits only where an
// anytime run is cut short. The answer memo keys on the Search alone
// (memo.go). Fields are promoted, so cfg.Budget and cfg.Workers read
// and write through.
type Config struct {
	Search
	Engine
	Limits
}

// Search holds every knob that changes a question's answer; a finished
// search is a pure function of the question and these fields.
type Search struct {
	// MaxSteps caps the number of simulated Q-Chase steps (query
	// evaluations) of every algorithm, which returns the best rewrite
	// found so far when exhausted. 0 means the default (100000).
	MaxSteps int
	// Budget is the operator cost bound B. Default 3 (the paper's
	// default experimental budget).
	Budget float64
	// MaxBound is b_m, the cap on relaxed edge bounds. Default 3.
	MaxBound int
	// Theta and Lambda configure the exemplar evaluator (vsim threshold
	// and irrelevant-match penalty). Defaults 1 and 1.
	Theta, Lambda float64
	// Prune enables the cl⁺ pruning strategies of Lemma 5.5.
	Prune bool
	// MaxAnalysis caps how many RC/RM/IM nodes the picky generators run
	// per-node neighborhood analysis on (highest closeness first);
	// pickiness scores are then relative to the sample. 0 means the
	// default (120).
	MaxAnalysis int
	// Seed drives the randomized baseline AnsHeuB.
	Seed int64
}

// Engine sizes the machinery a search runs on. Output is byte-identical
// for every setting.
type Engine struct {
	// Workers bounds how many jobs Session.AskAll runs at once: 0 (the
	// default) runs one per logical CPU, 1 runs them in submission
	// order. A question itself always runs on one goroutine (see
	// DESIGN.md "Concurrency model").
	Workers int
	// CacheCap bounds the star-view cache (§5.2) in tables; 0 runs
	// without one. A cached table is a pure function of its key, so the
	// cache only changes which tables get rebuilt.
	CacheCap int
	// AnswerCacheCap bounds the session-level answer memo in answers; 0
	// (the default) runs without one. With it, batch jobs (Session.Run /
	// AskAll) are keyed by a canonical digest of the graph, the algorithm,
	// the question and the Search; identical concurrent requests share
	// exactly one chase, and finished answers stay resident for later
	// identical requests. A memoized job returns the complete answer a
	// chase without Limits produced, which a deadline-limited caller may
	// observe as *more* complete than an uncached run — servers opt in
	// for throughput, libraries keep exact per-call semantics.
	AnswerCacheCap int
}

// Limits bounds one run: where an anytime search stops early, and who
// hears of its progress. They never enter the answer memo.
type Limits struct {
	// TimeLimit, when positive, stops the search after the wall-clock
	// limit and returns the best rewrite so far (anytime behavior).
	TimeLimit time.Duration
	// Deadline, when non-zero, is an absolute cutoff (read against the
	// question's clock) that wins over TimeLimit. On a Why run directly,
	// TimeLimit anchors at algorithm start. Every Session door converts
	// it to a Deadline at submission instead — AskAll at the batch call,
	// Run (and so Ask, AskFast, AskMultiFocus) at its call, and
	// cmd/wqe-serve at a request's arrival — so time a job spends queued
	// or compiling is not free.
	Deadline time.Time
	// Cancel, when non-nil, stops the search as soon as the channel is
	// closed: the anytime algorithms return the best rewrite found so
	// far, exactly as a deadline expiry would. The run polls it before
	// every step it grants (never inside an evaluation), so a cancelled
	// chase stops within one step. Servers wire a disconnected client's
	// done-channel here.
	Cancel <-chan struct{}
	// OnImprove, when non-nil, is invoked every time the best rewrite
	// improves — the paper's "return Q* upon request" anytime hook.
	// Sessions with a hook bypass the answer memo, so every improvement
	// is observed.
	OnImprove func(best Answer)
}

// DefaultConfig mirrors the paper's experimental defaults, with a
// 4096-table star-view cache and no answer memo.
func DefaultConfig() Config {
	return Config{
		Search: Search{Budget: 3, MaxBound: 3, Theta: 1, Lambda: 1, Prune: true},
		Engine: Engine{CacheCap: 4096},
	}
}

// withDefaults fills every unset search knob with its default.
func (c Search) withDefaults() Search {
	d := DefaultConfig().Search
	if c.Budget <= 0 {
		c.Budget = d.Budget
	}
	if c.MaxBound <= 0 {
		c.MaxBound = d.MaxBound
	}
	if c.Theta <= 0 {
		c.Theta = d.Theta
	}
	if c.Lambda <= 0 {
		c.Lambda = d.Lambda
	}
	if c.MaxAnalysis <= 0 {
		c.MaxAnalysis = 120
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 100000
	}
	return c
}

// Why is a compiled Why-question W(Q(u_o), E) over a graph: the shared
// state every Q-Chase algorithm consults — the exemplar evaluator, the
// matcher (with optional star cache), the fixed focus-candidate pool
// V_{u_o}, the relevant/irrelevant sets R(u_o)/I(u_o), and the
// theoretically optimal closeness cl*.
type Why struct {
	G    *graph.Graph
	Q    *query.Query
	E    *exemplar.Exemplar
	Cfg  Config
	Eval *exemplar.Eval

	Matcher *match.Matcher
	Dist    distindex.Index

	// FocusCands is V_{u_o}: the label-based candidate pool of the
	// original focus, fixed across the chase (it normalizes closeness).
	// It is ascending, as every answer is.
	FocusCands []graph.NodeID
	// focusRep reports, per entry of FocusCands, membership in rep(E, V).
	focusRep []bool
	// ClStar is the theoretically optimal closeness cl*.
	ClStar float64

	params ops.Params
	rng    *rand.Rand

	// partnerCache memoizes refinement partner sets across chase states:
	// the partners of a focus match at a pattern node depend only on the
	// node's matching signature and the exploration radius, not on the
	// rest of the rewrite.
	partnerCache map[partnerCacheKey][]graph.NodeID
	// partnerSigs numbers the matching signatures partnerCache keys
	// refer to (see sigID).
	partnerSigs map[string]int32
	// gs is operator generation's working memory, borrowed from gens, the
	// session's pool, for the length of a run (genScratch).
	gs   *genScratch
	gens *sync.Pool
	// maxOpsPerClass caps how many picky operators one state generates
	// per operator class: the constant maxOpsPerClass, which tests lift
	// to compare everything scored.
	maxOpsPerClass int

	// Stats accumulates search effort across one algorithm run, on the
	// one goroutine the run is on.
	Stats Stats

	// clock supplies the time for TimeLimit deadline checks. It is
	// time.Now outside tests; deadline tests substitute a fake clock to
	// exercise expiry deterministically.
	clock func() time.Time
}

// Stats reports search effort.
type Stats struct {
	Steps      int           // simulated Q-Chase steps (query evaluations)
	States     int           // states pushed into the frontier
	Pruned     int           // states cut by the cl⁺ bound
	Elapsed    time.Duration // wall-clock of the last algorithm run
	Stop       string        // why the run ended: StopDone, StopSteps, StopDeadline or StopCancelled
	CacheHits  int64
	CacheMiss  int64
	Trajectory []Sample // best-closeness-over-time curve (anytime)
}

// Sample is one point of the anytime trajectory.
type Sample struct {
	At        time.Duration
	Closeness float64
}

// NewWhy compiles a Why-question on a session of its own: it validates
// the query and exemplar, and builds the exemplar evaluator (rep(E, V),
// closeness), the distance oracle, and the matcher. Callers asking more
// than one question of a graph keep a Session instead.
func NewWhy(g *graph.Graph, q *query.Query, e *exemplar.Exemplar, cfg Config) (*Why, error) {
	return NewSession(g, cfg).Why(q, e)
}

// newWhyWith compiles a Why-question under cfg over the per-graph
// resources s owns: the distance oracle, the star-view cache (nil runs
// uncached), the generation scratch pool, and the clock — deadlines and
// elapsed stats must read the clock the session anchors submissions on.
func newWhyWith(s *Session, q *query.Query, e *exemplar.Exemplar, cfg Config) (*Why, error) {
	g := s.G
	cfg.Search = cfg.Search.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ev, err := exemplar.NewEval(g, e, exemplar.Options{Theta: cfg.Theta, Lambda: cfg.Lambda})
	if err != nil {
		return nil, err
	}
	if !ev.Nontrivial() {
		return nil, errors.New("chase: trivial exemplar: rep(E, V) is empty")
	}
	w := &Why{
		G:            g,
		Q:            q.Clone(),
		E:            e,
		Cfg:          cfg,
		Eval:         ev,
		Dist:         s.dist,
		params:       ops.Params{MaxBound: cfg.MaxBound},
		partnerCache: map[partnerCacheKey][]graph.NodeID{},
		partnerSigs:  map[string]int32{},
		gens:         &s.gens,
		clock:        s.clock,

		maxOpsPerClass: maxOpsPerClass,
	}
	// Warm the graph's lazy caches so concurrent Why-questions over the
	// same graph stay race-free.
	g.WarmCaches()
	w.Matcher = match.NewMatcher(g, w.Dist, s.cache)
	w.FocusCands = g.NodesByLabel(q.Nodes[q.Focus].Label)
	w.focusRep, w.ClStar = ev.RepAmong(w.FocusCands)
	return w, nil
}

// random returns the question's random source, seeded on first use:
// only GenRandom draws from it, and seeding a source is about a fifth of
// what compiling a question costs once its exemplar reads postings.
func (w *Why) random() *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(w.Cfg.Seed + 1))
	}
	return w.rng
}

// Classify returns the relevance class of focus candidate v given an
// answer set.
func (w *Why) Classify(v graph.NodeID, answer *match.Result) Relevance {
	inAns := answer.Has(v)
	inRep := w.Eval.InRep(v)
	switch {
	case inAns && inRep:
		return RM
	case inAns:
		return IM
	case inRep:
		return RC
	}
	return IC
}

// Partition splits the focus candidates into the four relevance sets,
// each ascending. FocusCands and the answer are both ascending, so one
// walk over the two classifies every candidate.
func (w *Why) Partition(answer *match.Result) (rm, im, rc, ic []graph.NodeID) {
	var lists [4][]graph.NodeID
	return w.partition(answer, &lists)
}

// partition is Partition into the four lists of p, which it empties
// first and leaves holding the result.
func (w *Why) partition(answer *match.Result, p *[4][]graph.NodeID) (rm, im, rc, ic []graph.NodeID) {
	rm, im, rc, ic = p[0][:0], p[1][:0], p[2][:0], p[3][:0]
	ans, j := answer.Answer, 0
	for i, v := range w.FocusCands {
		for j < len(ans) && ans[j] < v {
			j++
		}
		inAns := j < len(ans) && ans[j] == v
		switch inRep := w.focusRep[i]; {
		case inAns && inRep:
			rm = append(rm, v)
		case inAns:
			im = append(im, v)
		case inRep:
			rc = append(rc, v)
		default:
			ic = append(ic, v)
		}
	}
	*p = [4][]graph.NodeID{rm, im, rc, ic}
	return
}

// Closeness computes cl(answer, E) with the fixed |V_{u_o}| normalizer.
func (w *Why) Closeness(answer []graph.NodeID) float64 {
	return w.Eval.Closeness(answer, len(w.FocusCands))
}

// ClPlus computes the pruning upper bound cl⁺(answer, E).
func (w *Why) ClPlus(answer []graph.NodeID) float64 {
	return w.Eval.ClPlus(answer, len(w.FocusCands))
}

// Satisfied reports Q'(G) ⊨ E for an answer set.
func (w *Why) Satisfied(answer []graph.NodeID) bool {
	return w.Eval.SatisfiedBy(answer)
}

// Answer is one query-rewrite answer to a Why-question.
type Answer struct {
	// Query is the rewrite Q' = Q ⊕ Ops.
	Query *query.Query
	// Ops is the operator sequence, in normal form.
	Ops ops.Sequence
	// Cost is c(Ops).
	Cost float64
	// Closeness is cl(Q'(G), E).
	Closeness float64
	// Matches is Q'(G).
	Matches []graph.NodeID
	// Satisfied reports Q'(G) ⊨ E.
	Satisfied bool
	// Diff is the differential-table lineage for the applied operators.
	// The searches record it; ApxWhyM and AnsWE, which evaluate no
	// operator by itself, leave it empty.
	Diff []DiffEntry
	// Replaced reports that Query replaces the question's query rather
	// than rewriting it (FMAnsW's mined queries): Ops is then empty.
	Replaced bool
}

// String renders the answer headline.
func (a Answer) String() string {
	return fmt.Sprintf("rewrite cost=%.2f cl=%.4f |ans|=%d sat=%v ops=%v",
		a.Cost, a.Closeness, len(a.Matches), a.Satisfied, a.Ops)
}

// evaluate runs Match on q and assembles an Answer (without lineage).
// parent is the evaluation of the state q was rewritten from, nil for a
// question's own query: the matcher takes from it what q left unchanged
// (match.Matcher.MatchFrom) and returns what it would without it. It
// runs one Q-Chase step, which the caller has claimed (run.claim).
func (w *Why) evaluate(parent *match.Result, q *query.Query, seq ops.Sequence) (Answer, *match.Result) {
	res := w.Matcher.MatchFrom(parent, q)
	norm, err := seq.NormalForm()
	if err != nil {
		norm = seq
	}
	return Answer{
		Query:     q,
		Ops:       norm,
		Cost:      seq.Cost(w.G),
		Closeness: w.Closeness(res.Answer),
		Matches:   res.Answer,
		Satisfied: w.Satisfied(res.Answer),
	}, res
}
