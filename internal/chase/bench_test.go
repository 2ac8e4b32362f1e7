package chase_test

import (
	"math/rand"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/query"
)

// BenchmarkAnsWFig1 measures the full exact chase on the running
// example (the paper's Example 3.3 search).
func BenchmarkAnsWFig1(b *testing.B) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if a := w.AnsW(); a.Closeness != 0.5 {
			b.Fatalf("wrong answer: %v", a.Closeness)
		}
	}
}

// BenchmarkGenRelax measures picky relaxation generation (the NextOp
// hot path) on a synthetic instance.
func BenchmarkGenRelax(b *testing.B) {
	g, _ := datagen.Generate(datagen.DatasetKnowledge, 4000, 5)
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(5))
	inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
		Query:      datagen.QuerySpec{Edges: 2, MaxPredicates: 2, Shape: query.TopoTree},
		DisturbOps: 3,
	}, rng)
	if !ok {
		b.Skip("no instance")
	}
	w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	res := w.Matcher.Match(inst.Q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.GenRelax(res, nil, 3)
	}
}

// BenchmarkGenRefine measures picky refinement generation. A Why keeps
// the partner sets it has explored, so one Why reused across b.N times
// only the scoring over warm partner sets (every chase state after the
// first that meets the same matches) — AddL counting and survivor
// marking above all; "cold" gives each iteration a fresh Why, built
// outside the timer, and so times the partner BFS too.
func BenchmarkGenRefine(b *testing.B) {
	g, _ := datagen.Generate(datagen.DatasetKnowledge, 4000, 5)
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(9))
	inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
		Query:      datagen.QuerySpec{Edges: 2, MaxPredicates: 2, Shape: query.TopoTree},
		DisturbOps: 2,
		RelaxOnly:  true,
	}, rng)
	if !ok {
		b.Skip("no instance")
	}
	newWhy := func() *chase.Why {
		w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	b.Run("cold", func(b *testing.B) {
		res := newWhy().Matcher.Match(inst.Q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := newWhy()
			b.StartTimer()
			w.GenRefine(res, nil, 3)
		}
	})
	b.Run("warm", func(b *testing.B) {
		w := newWhy()
		res := w.Matcher.Match(inst.Q)
		w.GenRefine(res, nil, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.GenRefine(res, nil, 3)
		}
	})
}

// BenchmarkAsk times whole Why-questions the way the repo's benchmark
// asks them (benchmark/: explore_heu and explore_answ): a seeded
// products graph, distinct tree questions from a pool of the workload's
// size, one Session, a fresh Why per question, Workers=1. One iteration
// is one question; the pool wraps onto a fresh session, so every pass
// starts with a cold star cache, and the 4096-table star cache fills partway
// through a pass as it does in the benchmark's window (`make profile`'s
// 1200 questions see it full). It exists to be profiled: a question here
// goes through the same Session.Why → AnsHeu(3) / AnsW path as one in the
// benchmark's window.
//
// heu_2k, heu_18k and heu_180k are the scaling curve (ROADMAP item 4):
// the same question template on products graphs of 2k, 20k and 200k
// generated nodes (1 854, 18 054 and 180 054 realised), 12 questions
// each, AnsHeu(3) capped at 50 steps. The graph, its PLL and the pool
// are built once per process, outside the timer; the 180k graph takes
// seconds to build, so heu_180k skips under -short.
func BenchmarkAsk(b *testing.B) {
	for _, tc := range []struct {
		name                  string
		nodes, pool, maxSteps int
		run                   func(*chase.Why)
	}{
		{"heu", 2000, 1800, 200, func(w *chase.Why) { w.AnsHeu(3) }},
		{"answ", 1000, 1500, 60, func(w *chase.Why) { w.AnsW() }},
		{"heu_2k", 2000, 12, 50, func(w *chase.Why) { w.AnsHeu(3) }},
		{"heu_18k", 20000, 12, 50, func(w *chase.Why) { w.AnsHeu(3) }},
		{"heu_180k", 200000, 12, 50, func(w *chase.Why) { w.AnsHeu(3) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if tc.nodes > 20000 && testing.Short() {
				b.Skip("large graph skipped in -short mode")
			}
			f := askFixtureFor(b, tc.nodes, tc.pool)
			cfg := chase.DefaultConfig()
			cfg.Workers = 1
			cfg.MaxSteps = tc.maxSteps
			var sess *chase.Session
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(f.pool) == 0 {
					sess = chase.NewSessionWithIndex(f.g, cfg, f.idx)
				}
				inst := f.pool[i%len(f.pool)]
				w, err := sess.Why(inst.Q, inst.E)
				if err != nil {
					b.Fatal(err)
				}
				tc.run(w)
			}
		})
	}
}

// askFixture is one BenchmarkAsk shape's graph, PLL and question pool.
type askFixture struct {
	g    *graph.Graph
	idx  *distindex.PLL
	pool []*datagen.WhyInstance
}

// askFixtures holds the fixtures built so far, by node count and pool
// size: the testing package calls a benchmark function once per b.N it
// tries, and the 180k graph is too slow to build each time.
var askFixtures = map[[2]int]*askFixture{}

func askFixtureFor(b *testing.B, nodes, poolSize int) *askFixture {
	b.Helper()
	key := [2]int{nodes, poolSize}
	if f := askFixtures[key]; f != nil {
		return f
	}
	g, err := datagen.Generate(datagen.DatasetProducts, nodes, 7)
	if err != nil {
		b.Fatal(err)
	}
	f := &askFixture{g: g, idx: distindex.NewPLL(g)}
	m := match.NewMatcher(g, f.idx, nil)
	rng := rand.New(rand.NewSource(14))
	for tries := 0; len(f.pool) < poolSize && tries < 20*poolSize; tries++ {
		inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
			Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
			DisturbOps: 3,
			MaxTuples:  5,
		}, rng)
		if ok {
			f.pool = append(f.pool, inst)
		}
	}
	if len(f.pool) == 0 {
		b.Skip("no instance")
	}
	askFixtures[key] = f
	return f
}
