package graph_test

import (
	"math/bits"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/graph"
)

var ballsSink int

// BenchmarkVisitBalls is the partner-set shape on the benchmark's own
// graph (the 2k-node products dataset): 64 neighbouring sources — the
// closest nodes around a seed, as the sampled matches of one question
// are — each traversed to undirected radius 4, once by 64 VisitBall
// calls and once by one VisitBalls sweep. An op is the whole batch.
func BenchmarkVisitBalls(b *testing.B) {
	g, err := datagen.Generate(datagen.DatasetProducts, 2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	var batches [][]graph.NodeID
	for seed := 0; seed < g.NumNodes(); seed += g.NumNodes() / 16 {
		var srcs []graph.NodeID
		for _, nd := range g.Ball(graph.NodeID(seed), g.NumNodes(), graph.Both) {
			if len(srcs) < graph.MaxBallSources {
				srcs = append(srcs, nd.V)
			}
		}
		batches = append(batches, srcs)
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range batches[i%len(batches)] {
				g.VisitBall(s, 4, graph.Both, func(graph.NodeID, int32) bool {
					ballsSink++
					return true
				})
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.VisitBalls(batches[i%len(batches)], 4, graph.Both, func(_ graph.NodeID, _ int32, mask uint64) uint64 {
				ballsSink += bits.OnesCount64(mask)
				return 0
			})
		}
	})
}
