package main

import (
	"math/rand"
	"os"
	"time"

	"wqe/internal/anscache"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/graphload"
	"wqe/internal/match"
)

const (
	ballCenters  = 2000
	withinPairs  = 200000
	hitProbes    = 200000
	probeRepeats = 3
)

// probes runs the per-layer micro-probes of the traced pass on the
// workload's own graph and questions: each times calls into one
// layer's public functions, from outside. answers are the traced
// pass's answers to qs (closeness probe input).
func probes(m map[string]float64, in *inputs, ld *loaded, qs []compiled, answers []asked) error {
	g := ld.g
	rng := rand.New(rand.NewSource(in.Seed + 11))
	n := g.NumNodes()

	// graph: bounded BFS balls, alternating direction and hop bound the
	// way star-table builds use them.
	var ballNodes int
	start := time.Now()
	for i := 0; i < ballCenters; i++ {
		dir := graph.Forward
		if i%2 == 1 {
			dir = graph.Backward
		}
		ballNodes += len(g.Ball(graph.NodeID(rng.Intn(n)), 2+i%2, dir))
	}
	m["graph.ball_ns_per_node"] = ratio(float64(time.Since(start)), float64(ballNodes))
	m["graph.ball_nodes_per_call"] = float64(ballNodes) / ballCenters

	labels := g.Labels.Len()
	start = time.Now()
	for r := 0; r < 1000; r++ {
		for id := 0; id < labels; id++ {
			_ = g.NodesByLabel(g.Labels.Name(int32(id)))
		}
	}
	m["graph.nodes_by_label_ns"] = ratio(float64(time.Since(start)), float64(1000*labels))

	// graphload: both on-disk formats of the same graph.
	var err error
	if m["graphload.snapshot_open_ms"], err = timeOpen(in.SnapshotPath); err != nil {
		return err
	}
	if m["graphload.json_open_ms"], err = timeOpen(in.JSONPath); err != nil {
		return err
	}
	st, err := os.Stat(in.SnapshotPath)
	if err != nil {
		return err
	}
	m["graphload.snapshot_bytes_per_node"] = float64(st.Size()) / float64(n)

	// distindex: build, marshal/restore, and the bounded query the
	// matcher issues for every pattern-edge check.
	var pll *distindex.PLL
	m["distindex.pll_build_ms"] = medianMS(func() { pll = distindex.NewPLL(g) })
	blob := pll.Marshal()
	m["distindex.pll_restore_ms"] = medianMS(func() { _, err = distindex.UnmarshalPLL(g, blob) })
	if err != nil {
		return err
	}
	m["distindex.label_entries"] = float64(pll.LabelSize())
	start = time.Now()
	for i := 0; i < withinPairs; i++ {
		_ = pll.Within(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), 2+i%2)
	}
	m["distindex.within_ns"] = float64(time.Since(start)) / withinPairs

	// exemplar: evaluator construction (rep(E, V)) and closeness of an
	// answer set.
	opts := exemplar.Options{Theta: ld.sess.Cfg.Theta, Lambda: ld.sess.Cfg.Lambda}
	evals := make([]*exemplar.Eval, len(qs))
	start = time.Now()
	for i, c := range qs {
		if evals[i], err = exemplar.NewEval(g, c.e, opts); err != nil {
			return err
		}
	}
	m["exemplar.neweval_ms"] = msSince(start) / float64(len(qs))
	start = time.Now()
	for i, a := range answers {
		_ = evals[i].Closeness(a.answer.Matches, n)
	}
	m["exemplar.closeness_ns"] = ratio(float64(time.Since(start)), float64(len(answers)))

	// match: cold evaluation (no cache, every star table built), warm
	// evaluation (tables resident), and their difference — the star
	// build share.
	cold := match.NewMatcher(g, pll, nil)
	var cells int
	start = time.Now()
	for _, c := range qs {
		for _, s := range cold.Match(c.q).Stars {
			cells += s.Table.Size()
		}
	}
	coldMS := msSince(start) / float64(len(qs))
	warm := match.NewMatcher(g, pll, match.NewCache(4*len(qs)+64, 0.95))
	for _, c := range qs {
		warm.Match(c.q)
	}
	start = time.Now()
	for _, c := range qs {
		warm.Match(c.q)
	}
	warmMS := msSince(start) / float64(len(qs))
	m["match.match_cold_ms"] = coldMS
	m["match.match_warm_ms"] = warmMS
	m["match.star_build_ms"] = coldMS - warmMS
	m["match.star_cells"] = float64(cells)
	start = time.Now()
	for r := 0; r < 100; r++ {
		for _, c := range qs {
			_ = match.Decompose(c.q)
		}
	}
	m["match.decompose_ns"] = float64(time.Since(start)) / float64(100*len(qs))

	// The two caches' hit paths, on a resident key.
	sc := match.NewCache(64, 0.95)
	sc.Put("probe", &match.StarTable{})
	start = time.Now()
	for i := 0; i < hitProbes; i++ {
		_ = sc.Get("probe")
	}
	m["match.cache_hit_ns"] = float64(time.Since(start)) / hitProbes
	ac := anscache.New[int](64, 0)
	one := func() (int, bool) { return 1, true }
	ac.GetOrCompute("probe", one)
	start = time.Now()
	for i := 0; i < hitProbes; i++ {
		ac.GetOrCompute("probe", one)
	}
	m["anscache.hit_ns"] = float64(time.Since(start)) / hitProbes
	return nil
}

// timeOpen is the median wall time of graphload.Open on path, in ms.
func timeOpen(path string) (float64, error) {
	var err error
	ms := medianMS(func() {
		if _, e := graphload.Open(path); e != nil {
			err = e
		}
	})
	return ms, err
}

// medianMS runs fn probeRepeats times and returns the median in ms.
func medianMS(fn func()) float64 {
	var ms []float64
	for i := 0; i < probeRepeats; i++ {
		start := time.Now()
		fn()
		ms = append(ms, msSince(start))
	}
	return median(ms)
}
