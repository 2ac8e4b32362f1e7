package chase_test

import (
	"math"
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
		w.GenRelax(inst.Q, res, nil, 3)
	}
}

// BenchmarkGenRefine measures picky refinement generation. A Why keeps
// the partner sets it has explored, so one Why reused across b.N times
// only the scoring over warm partner sets (every chase state after the
// first that meets the same matches) — AddL counting and survivor
// marking above all; "cold" gives each iteration a fresh Why, built
// outside the timer, and so times the partner BFS too.
// "warm-irregular" is warm on the same graph plus one isolated node
// carrying NaN under every attribute, which makes every attribute
// irregular (graph.Codes): the same operators through AddL's
// compare-by-value branch and NodeCheck's value path.
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
	newWhy := func(g *graph.Graph) *chase.Why {
		w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return w
	}
	warm := func(b *testing.B, g *graph.Graph) {
		w := newWhy(g)
		res := w.Matcher.Match(inst.Q)
		w.GenRefine(inst.Q, res, nil, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.GenRefine(inst.Q, res, nil, 3)
		}
	}
	b.Run("cold", func(b *testing.B) {
		res := newWhy(g).Matcher.Match(inst.Q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := newWhy(g)
			b.StartTimer()
			w.GenRefine(inst.Q, res, nil, 3)
		}
	})
	b.Run("warm", func(b *testing.B) { warm(b, g) })
	b.Run("warm-irregular", func(b *testing.B) {
		gb := datagen.Knowledge(4000, 5)
		nan := map[string]graph.Value{}
		for a := 1; a < gb.Attrs.Len(); a++ {
			nan[gb.Attrs.Name(int32(a))] = graph.N(math.NaN())
		}
		gb.AddNode("irregular", nan)
		warm(b, gb.Build())
	})
}

// BenchmarkAsk times whole Why-questions the way the repo's benchmark
// asks them (benchmark/: explore_heu and explore_answ): a seeded
// products graph, distinct tree questions from a pool of the workload's
// size, one Session, a fresh Why per question, Workers=1. One iteration
// is one question; the pool wraps onto a fresh session, so every pass
// starts with a cold star cache, and the 4096-table cache fills partway
// through a pass as it does in the benchmark's window (`make profile`'s
// 1200 questions see it full). It exists to be profiled: a question here
// goes through the same Session.Why → AnsHeu(3) / AnsW path as one in the
// benchmark's window.
func BenchmarkAsk(b *testing.B) {
	for _, tc := range []struct {
		name                  string
		nodes, pool, maxSteps int
		run                   func(*chase.Why)
	}{
		{"heu", 2000, 1800, 200, func(w *chase.Why) { w.AnsHeu(3) }},
		{"answ", 1000, 1500, 60, func(w *chase.Why) { w.AnsW() }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := datagen.Generate(datagen.DatasetProducts, tc.nodes, 7)
			if err != nil {
				b.Fatal(err)
			}
			idx := distindex.NewPLL(g)
			m := match.NewMatcher(g, idx, nil)
			rng := rand.New(rand.NewSource(14))
			var pool []*datagen.WhyInstance
			for tries := 0; len(pool) < tc.pool && tries < 20*tc.pool; tries++ {
				inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
					Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
					DisturbOps: 3,
					MaxTuples:  5,
				}, rng)
				if ok {
					pool = append(pool, inst)
				}
			}
			if len(pool) == 0 {
				b.Skip("no instance")
			}
			cfg := chase.DefaultConfig()
			cfg.Workers = 1
			cfg.MaxSteps = tc.maxSteps
			var sess *chase.Session
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(pool) == 0 {
					sess = chase.NewSessionWithIndex(g, cfg, idx)
				}
				inst := pool[i%len(pool)]
				w, err := sess.Why(inst.Q, inst.E)
				if err != nil {
					b.Fatal(err)
				}
				tc.run(w)
			}
		})
	}
}
