package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"wqe/internal/chase"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/graphload"
	"wqe/internal/query"
)

// compiled is one question parsed once, outside every timed region: a
// library user holds query and exemplar values, not JSON.
type compiled struct {
	q     *query.Query
	e     *exemplar.Exemplar
	algo  string
	truth []int64
}

func compileAll(qs []question) ([]compiled, error) {
	out := make([]compiled, len(qs))
	for i, q := range qs {
		pq, pe, err := q.parse()
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		out[i] = compiled{q: pq, e: pe, algo: algoFor(q.Endpoint), truth: q.Truth}
	}
	return out, nil
}

// libraryConfig is the engine configuration of the library workloads:
// paper defaults, the workload's step cap, answer memo off. Workers is
// 1 because on this 2-CPU box Workers=0 bought no speed-up and a wider
// spread (ISSUE.md sizing evidence); par.heu_speedup keeps watching it.
func libraryConfig(w workload, workers int) chase.Config {
	cfg := chase.DefaultConfig()
	cfg.Workers = workers
	cfg.MaxSteps = w.maxSteps
	return cfg
}

// loaded is a graph file turned into a warmed, ready session.
type loaded struct {
	g    *graph.Graph
	idx  distindex.Index
	sess *chase.Session
}

// setupSession is what a library user pays before the first question:
// open the graph file, restore or build the distance index, build the
// session, warm the graph's lazy caches. With a tracer each step gets
// a span under one "setup" span.
func setupSession(in *inputs, cfg chase.Config, tr *tracer) (*loaded, time.Duration, error) {
	start := time.Now()
	root := 0
	step := func(name string, fn func()) {
		if tr == nil {
			fn()
			return
		}
		id := tr.begin(0, root, name)
		fn()
		tr.end(id)
	}
	if tr != nil {
		root = tr.begin(0, 0, "setup")
	}
	var res *graphload.Result
	var err error
	step("open", func() { res, err = graphload.Open(in.GraphPath) })
	if err != nil {
		return nil, 0, err
	}
	ld := &loaded{g: res.G, idx: res.Index}
	if ld.idx == nil {
		step("pll_build", func() { ld.idx = distindex.NewPLL(ld.g) })
	}
	step("session_new", func() { ld.sess = chase.NewSessionWithIndex(ld.g, cfg, ld.idx) })
	step("warm", func() { ld.g.WarmCaches() })
	if tr != nil {
		tr.end(root)
	}
	return ld, time.Since(start), nil
}

// asked is one answered question with what the benchmark saw of it.
type asked struct {
	answer       chase.Answer
	stats        chase.Stats
	compile, run time.Duration
	// toBest is when the best rewrite last improved, from run start.
	toBest time.Duration
	err    error
}

// ask answers one question through the session the way Session.AskFast
// and Session.Ask do, timing compile (Session.Why) and run apart.
func ask(sess *chase.Session, c compiled) asked {
	var out asked
	t0 := time.Now()
	w, err := sess.Why(c.q, c.e)
	out.compile = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	t1 := time.Now()
	switch c.algo {
	case "heu":
		out.answer = w.AnsHeu(3)
	case "whymany":
		out.answer = w.ApxWhyM()
	case "whyempty":
		out.answer = w.AnsWE()
	default:
		out.answer = w.AnsW()
	}
	out.run = time.Since(t1)
	out.stats = w.Stats
	if n := len(w.Stats.Trajectory); n > 0 {
		out.toBest = w.Stats.Trajectory[n-1].At
	}
	return out
}

// windowResult is what one timed closed loop produced.
type windowResult struct {
	elapsed   time.Duration
	latencyMS []float64
	jaccard   []float64
	errors    int
	// first holds the first pass's answers (by pool index) for the
	// answer checks, which run after the clock stops.
	first []chase.Answer
}

// runWindow asks the pool's questions one after another through one
// session for the given time. Each question is asked once per pass;
// should the pool run out, the next pass starts on a fresh session (a
// cold star cache), so every pass is the same work.
func runWindow(ld *loaded, cfg chase.Config, qs []compiled, seconds int) windowResult {
	var res windowResult
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	sess := ld.sess
loop:
	for pass := 0; ; pass++ {
		if pass > 0 {
			sess = chase.NewSessionWithIndex(ld.g, cfg, ld.idx)
		}
		for _, c := range qs {
			t0 := time.Now()
			if !t0.Before(deadline) {
				break loop
			}
			a := ask(sess, c)
			lat := time.Since(t0)
			if a.err != nil {
				res.errors++
				continue
			}
			res.latencyMS = append(res.latencyMS, float64(lat)/float64(time.Millisecond))
			res.jaccard = append(res.jaccard, jaccard(nodeIDs(a.answer.Matches), c.truth))
			if pass == 0 {
				res.first = append(res.first, a.answer)
			}
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// replay asks the first n questions once on a fresh session and
// returns the wall time — the untraced and Workers=nproc baselines the
// traced pass is compared against.
func replay(ld *loaded, cfg chase.Config, qs []compiled) (time.Duration, error) {
	sess := chase.NewSessionWithIndex(ld.g, cfg, ld.idx)
	start := time.Now()
	for _, c := range qs {
		if a := ask(sess, c); a.err != nil {
			return 0, a.err
		}
	}
	return time.Since(start), nil
}

// timedIndex is the benchmark-owned distance oracle handed to the
// engine in the traced pass: it counts the chase's oracle calls and
// the time spent in them, from outside the distindex package.
type timedIndex struct {
	inner distindex.Index
	calls atomic.Int64
	busy  atomic.Int64
}

func (t *timedIndex) Dist(s, u graph.NodeID) int {
	//lint:ignore detsource benchmark-owned oracle wrapper; the clock only feeds the busy-time counter, never a result the chase reads
	t0 := time.Now()
	d := t.inner.Dist(s, u)
	t.busy.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	return d
}

func (t *timedIndex) Within(s, u graph.NodeID, bound int) bool {
	//lint:ignore detsource benchmark-owned oracle wrapper; the clock only feeds the busy-time counter, never a result the chase reads
	t0 := time.Now()
	ok := t.inner.Within(s, u, bound)
	t.busy.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	return ok
}

// tracedResult is the traced pass over a fixed pool prefix.
type tracedResult struct {
	g        *graph.Graph
	elapsed  time.Duration
	asked    []asked // by prefix index
	calls    int64
	busy     time.Duration
	counters chase.SessionCounters
	sha      string
	failures []string
}

// replayTraced asks the prefix on a fresh Workers=1 session whose
// oracle is the timedIndex, recording question{compile, run{oracle}}
// spans and checking every answer.
func replayTraced(ld *loaded, cfg chase.Config, qs []compiled, tr *tracer, ck *checker) tracedResult {
	res := tracedResult{g: ld.g}
	oracle := &timedIndex{inner: ld.idx}
	sess := chase.NewSessionWithIndex(ld.g, cfg, oracle)
	h := sha256.New()
	start := time.Now()
	for i, c := range qs {
		op := i + 1
		calls0, busy0 := oracle.calls.Load(), oracle.busy.Load()
		qid := tr.begin(op, 0, "question")
		a := ask(sess, c)
		tr.end(qid)
		// ask timed compile and run itself; lay them out as children of
		// the question span, run last so it ends where the question does.
		t0 := tr.spans[qid-1].Start
		t1 := t0 + int64(a.compile)
		tr.add(op, qid, "compile", t0, t1)
		rid := tr.add(op, qid, "run", t1, t1+int64(a.run))
		tr.aggregate(op, rid, "oracle", oracle.calls.Load()-calls0, time.Duration(oracle.busy.Load()-busy0))
		res.asked = append(res.asked, a)
		if a.err != nil {
			res.failures = append(res.failures, fmt.Sprintf("question %d: %v", i, a.err))
			continue
		}
		fmt.Fprintf(h, "%d|%s\n", i, renderAnswer(a.answer, a.stats.Steps, a.stats.States))
	}
	res.elapsed = time.Since(start)
	res.calls = oracle.calls.Load()
	res.busy = time.Duration(oracle.busy.Load())
	res.counters = sess.Counters()
	res.sha = hex.EncodeToString(h.Sum(nil))
	// Checks run after the clock stopped: they are the benchmark's
	// cost, not the engine's.
	for i, a := range res.asked {
		if a.err != nil {
			continue
		}
		if err := ck.check(qs[i], a.answer); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("question %d: %v", i, err))
		}
	}
	return res
}

// renderAnswer is the canonical one-line form answers are hashed and
// compared in: everything deterministic about an answer, no timings.
func renderAnswer(a chase.Answer, steps, states int) string {
	return fmt.Sprintf("%s|%v|%.12g|%.12g|%v|%v|%d|%d",
		a.Query.Key(), a.Ops, a.Cost, a.Closeness, a.Satisfied, a.Matches, steps, states)
}

// childMain is the library workloads' measured process: it receives
// only generated files, so its peak RSS is the engine's, not the
// generator's.
func childMain(dir string) error {
	in, err := readInputs(dir)
	if err != nil {
		return err
	}
	w, ok := workloadByName(in.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", in.Workload)
	}
	var res *result
	if in.Trace {
		var tr *tracer
		if res, tr, _, err = libraryTraced(in, w); err == nil {
			err = tr.write(traceFile(in))
		}
	} else {
		res, err = libraryTimed(in, w)
	}
	if err != nil {
		return err
	}
	return res.save(dir)
}

// setupRepeats is how many times set-up is measured per run; the
// median is reported.
const setupRepeats = 9

// libraryTimed measures the end-to-end metrics with tracing off.
func libraryTimed(in *inputs, w workload) (*result, error) {
	qs, err := compileAll(in.Questions)
	if err != nil {
		return nil, err
	}
	cfg := libraryConfig(w, 1)
	var ld *loaded
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var d time.Duration
		if ld, d, err = setupSession(in, cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	win := runWindow(ld, cfg, qs, in.Seconds)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	res := newResult()
	res.Attempted = len(win.latencyMS) + win.errors
	res.Failed = win.errors
	ck := newChecker(ld.g, cfg)
	for _, i := range sampleIndices(len(win.first), checkSample) {
		if err := ck.check(qs[i], win.first[i]); err != nil {
			res.fail("question %d: %v", i, err)
		}
	}
	res.setEndToEnd(w, setups, win.latencyMS, win.elapsed, win.jaccard, rss)
	res.Detail["checked_answers"] = min(len(win.first), checkSample)
	res.Detail["pool"] = len(qs)
	return res, nil
}

// libraryTraced is the traced pass: set-up with spans, the pool prefix
// replayed with spans and a counting oracle, the same prefix replayed
// untraced and at Workers=nproc for the overhead and speed-up ratios,
// then the per-layer micro-probes on the same graph.
func libraryTraced(in *inputs, w workload) (*result, *tracer, *tracedResult, error) {
	qs, err := compileAll(in.Questions[:w.traceOps])
	if err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer()
	cfg := libraryConfig(w, 1)
	ld, _, err := setupSession(in, cfg, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	traced := replayTraced(ld, cfg, qs, tr, newChecker(ld.g, cfg))
	plain, err := replay(ld, cfg, qs)
	if err != nil {
		return nil, nil, nil, err
	}
	wide, err := replay(ld, libraryConfig(w, runtime.NumCPU()), qs)
	if err != nil {
		return nil, nil, nil, err
	}

	res := newResult()
	res.Attempted = len(qs)
	for _, f := range traced.failures {
		res.fail("%s", f)
	}
	m := res.Metrics
	for _, s := range tr.spans {
		if s.Name == "warm" {
			m["graph.warm_caches_ms"] = float64(s.End-s.Start) / float64(time.Millisecond)
		}
	}
	chaseMetrics(m, traced)
	c := traced.counters.Cache
	m["match.cache_hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	m["match.cache_evictions"] = float64(c.Evictions)
	m["trace.overhead_ratio"] = ratio(plain.Seconds(), traced.elapsed.Seconds())
	m["par.heu_speedup"] = ratio(plain.Seconds(), wide.Seconds())
	if err := probes(m, in, ld, qs, traced.asked); err != nil {
		return nil, nil, nil, err
	}
	res.Detail["answers_sha256"] = traced.sha
	res.Detail["trace_ops"] = len(qs)
	res.Detail["question_children_cover"] = tr.childCover("question")
	res.Detail["self_time_ms"] = tr.selfTimesMS()
	return res, tr, &traced, nil
}

// chaseMetrics derives the chase and distindex per-layer numbers from
// the traced replay. Counts are totals over the prefix, times are means
// per question.
func chaseMetrics(m map[string]float64, t tracedResult) {
	var compile, run, toBest, closeness []float64
	var steps, states, pruned int
	for _, a := range t.asked {
		if a.err != nil {
			continue
		}
		compile = append(compile, float64(a.compile)/float64(time.Millisecond))
		run = append(run, float64(a.run)/float64(time.Millisecond))
		toBest = append(toBest, float64(a.toBest)/float64(time.Millisecond))
		closeness = append(closeness, a.answer.Closeness)
		steps += a.stats.Steps
		states += a.stats.States
		pruned += a.stats.Pruned
	}
	n := float64(len(run))
	busyMS := float64(t.busy) / float64(time.Millisecond)
	m["chase.compile_ms"] = mean(compile)
	m["chase.run_ms"] = mean(run)
	m["chase.run_excl_oracle_ms"] = mean(run) - ratio(busyMS, n)
	m["chase.steps"] = float64(steps)
	m["chase.states"] = float64(states)
	m["chase.pruned"] = float64(pruned)
	m["chase.prune_ratio"] = ratio(float64(pruned), float64(states+pruned))
	m["chase.ms_per_step"] = ratio(mean(run)*n, float64(steps))
	m["chase.time_to_best_ms"] = mean(toBest)
	m["chase.closeness_mean"] = mean(closeness)
	m["distindex.chase_calls"] = float64(t.calls)
	m["distindex.chase_busy_ms"] = busyMS
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
