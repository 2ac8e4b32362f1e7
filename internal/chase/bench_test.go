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
		w.GenRelax(inst.Q, res, map[string]bool{}, 3)
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
		w.GenRefine(inst.Q, res, map[string]bool{}, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.GenRefine(inst.Q, res, map[string]bool{}, 3)
		}
	}
	b.Run("cold", func(b *testing.B) {
		res := newWhy(g).Matcher.Match(inst.Q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := newWhy(g)
			b.StartTimer()
			w.GenRefine(inst.Q, res, map[string]bool{}, 3)
		}
	})
	b.Run("warm", func(b *testing.B) { warm(b, g) })
	b.Run("warm-irregular", func(b *testing.B) {
		g, _ := datagen.Generate(datagen.DatasetKnowledge, 4000, 5)
		nan := map[string]graph.Value{}
		for a := 1; a < g.Attrs.Len(); a++ {
			nan[g.Attrs.Name(int32(a))] = graph.N(math.NaN())
		}
		g.AddNode("irregular", nan)
		warm(b, g)
	})
}
