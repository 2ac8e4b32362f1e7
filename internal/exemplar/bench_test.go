package exemplar

import (
	"math/rand"
	"testing"

	"wqe/internal/graph"
)

func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	gb := graph.NewBuilder()
	for i := 0; i < n; i++ {
		gb.AddNode("Phone", map[string]graph.Value{
			"Display": graph.N([]float64{5.5, 6.2, 6.3}[rng.Intn(3)]),
			"Storage": graph.N(float64(int(16) << rng.Intn(4))),
			"Price":   graph.N(float64(300 + 50*rng.Intn(14))),
		})
	}
	return mustBuild(gb)
}

func benchExemplar() *Exemplar {
	return &Exemplar{
		Tuples: []TuplePattern{
			{"Display": C(graph.N(6.2)), "Storage": V("x1"), "Price": W()},
			{"Display": C(graph.N(6.3)), "Storage": V("x2"), "Price": V("x3")},
		},
		Constraints: []Constraint{
			{Left: "x3", Op: graph.LT, Val: graph.N(800)},
			{Left: "x1", Op: graph.GT, IsVar: true, Right: "x2"},
		},
	}
}

// BenchmarkNewEval measures compiling an exemplar (scan + rep fixpoint)
// over a 10k-node graph.
func BenchmarkNewEval(b *testing.B) {
	g := benchGraph(10000)
	e := benchExemplar()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEval(g, e, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSatisfiedBy measures the per-chase-step answer check.
func BenchmarkSatisfiedBy(b *testing.B) {
	g := benchGraph(10000)
	ev, err := NewEval(g, benchExemplar(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	answer := make([]graph.NodeID, 200)
	for i := range answer {
		answer[i] = graph.NodeID(i * 37 % 10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.SatisfiedBy(answer)
	}
}

// BenchmarkCloseness measures the per-state closeness computation.
func BenchmarkCloseness(b *testing.B) {
	g := benchGraph(10000)
	ev, err := NewEval(g, benchExemplar(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	answer := make([]graph.NodeID, 500)
	for i := range answer {
		answer[i] = graph.NodeID(i * 13 % 10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Closeness(answer, 10000)
	}
}

// BenchmarkTupleCloseness measures the vsim kernel.
func BenchmarkTupleCloseness(b *testing.B) {
	g := benchGraph(1000)
	t := benchExemplar().Tuples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TupleCloseness(g, graph.NodeID(i%1000), t)
	}
}
