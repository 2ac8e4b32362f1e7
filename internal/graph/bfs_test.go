package graph

import (
	"runtime/debug"
	"slices"
	"testing"
)

// TestVisitBallMatchesBall pins VisitBall to Ball: for every direction,
// radius 0–4 and stop point k, the nodes visited before the callback
// declines are exactly the first k entries of the ball, distances
// included. VisitBall keeps its own copy of the loop (see its comment),
// so this is what stops the two drifting apart.
func TestVisitBallMatchesBall(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(40, 110, seed)
		for _, dir := range []Direction{Forward, Backward, Both} {
			for hops := 0; hops <= 4; hops++ {
				for _, src := range []NodeID{0, NodeID(seed + 3), NodeID(g.NumNodes() - 1)} {
					ball := g.Ball(src, hops, dir)
					// k == len(ball)+1 never stops: the full traversal.
					for k := 1; k <= len(ball)+1; k++ {
						var got []NodeDist
						g.VisitBall(src, hops, dir, func(u NodeID, d int32) bool {
							got = append(got, NodeDist{V: u, D: d})
							return len(got) < k
						})
						want := ball[:min(k, len(ball))]
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d dir %d hops %d src %d stop %d:\n got %v\nwant %v",
								seed, dir, hops, src, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestVisitBallNested: the callback may traverse the graph itself.
func TestVisitBallNested(t *testing.T) {
	g := randomGraph(30, 90, 1)
	want := g.Ball(2, 3, Both)
	var got []NodeDist
	g.VisitBall(2, 3, Both, func(u NodeID, d int32) bool {
		g.VisitBall(u, 2, Forward, func(NodeID, int32) bool { return true })
		_ = g.Ball(u, 2, Backward)
		got = append(got, NodeDist{V: u, D: d})
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("nested traversal disturbed the outer visit:\n got %v\nwant %v", got, want)
	}
}

// TestVisitBallAllocs: on a warm scratch a visit allocates nothing,
// whether it runs to the radius or stops early.
func TestVisitBallAllocs(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the scratch never stays warm")
			}
		}
	}
	g := randomGraph(2000, 6000, 3)
	visitAll := func(limit int) {
		for v := NodeID(0); v < 20; v++ {
			n := 0
			g.VisitBall(v, 4, Both, func(NodeID, int32) bool {
				n++
				return n != limit
			})
		}
	}
	visitAll(0) // grow the scratch to the largest ball below
	for _, limit := range []int{0, 96} {
		if allocs := testing.AllocsPerRun(50, func() { visitAll(limit) }); allocs != 0 {
			t.Errorf("stop after %d (0 = never): %v allocations per run, want 0", limit, allocs)
		}
	}
}

// BenchmarkBall and BenchmarkVisitBall are a pair: the same undirected
// radius-4 traversals over a 2k-node graph, materialized vs visited
// (full, and stopped after 96 nodes — the partner-set shape).
var ballSink int

func BenchmarkBall(b *testing.B) {
	g := randomGraph(2000, 5000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ballSink += len(g.Ball(NodeID(i%2000), 4, Both))
	}
}

func BenchmarkVisitBall(b *testing.B) {
	g := randomGraph(2000, 5000, 7)
	for _, limit := range []int{0, 96} {
		name := "full"
		if limit > 0 {
			name = "first96"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				g.VisitBall(NodeID(i%2000), 4, Both, func(NodeID, int32) bool {
					n++
					return n != limit
				})
				ballSink += n
			}
		})
	}
}
