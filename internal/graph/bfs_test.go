package graph

import (
	"maps"
	"math"
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// TestVisitBallMatchesBall pins VisitBall to Ball: for every direction,
// radius 0–4 and stop point k, the nodes visited before the callback
// declines are exactly the first k entries of the ball, distances
// included. VisitBall keeps its own copy of the loop (see its comment),
// so this is what stops the two drifting apart. Radius math.MaxInt
// (past math.MaxInt32 where int has 64 bits) reaches what |V| does.
func TestVisitBallMatchesBall(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := MustBuild(randomGraph(40, 110, seed))
		for _, dir := range []Direction{Forward, Backward, Both} {
			for _, hops := range []int{0, 1, 2, 3, 4, math.MaxInt} {
				for _, src := range []NodeID{0, NodeID(seed + 3), NodeID(g.NumNodes() - 1)} {
					ball := g.Ball(src, min(hops, g.NumNodes()), dir)
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

// TestTraverserMatchesBall pins Traverser.Ball to Ball for every
// direction, radius 0–4 and source, on one traverser reused throughout:
// a ball stays valid while the other two directions are asked, and the
// epoch stamp wrapping around mid-run (the scratch's hard reset) changes
// nothing. Both reach as far at radius math.MaxInt as at radius |V|.
func TestTraverserMatchesBall(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := MustBuild(randomGraph(40, 110, seed))
		tr := g.Traverser()
		tr.sc.stamp = ^uint32(0) - 20 // wraps within the first few dozen balls
		wrapped := false
		for _, hops := range []int{0, 1, 2, 3, 4, math.MaxInt} {
			for src := NodeID(0); int(src) < g.NumNodes(); src++ {
				before := tr.sc.stamp
				var got [3][]NodeDist
				for _, dir := range []Direction{Forward, Backward, Both} {
					got[dir] = tr.Ball(src, hops, dir)
				}
				wrapped = wrapped || tr.sc.stamp < before
				for _, dir := range []Direction{Forward, Backward, Both} {
					if want := g.Ball(src, min(hops, g.NumNodes()), dir); !slices.Equal(got[dir], want) {
						t.Fatalf("seed %d dir %d hops %d src %d:\n got %v\nwant %v", seed, dir, hops, src, got[dir], want)
					}
				}
			}
		}
		tr.Release()
		if !wrapped {
			t.Fatal("the stamp never wrapped: the hard reset went untested")
		}
	}
}

// TestTraverserAllocs: once its storage has grown to the balls it
// serves, a traverser allocates nothing, however many balls it computes.
func TestTraverserAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the scratch never stays warm")
	}
	g := MustBuild(randomGraph(2000, 6000, 3))
	run := func() {
		tr := g.Traverser()
		for v := NodeID(0); v < 50; v++ {
			for _, dir := range []Direction{Forward, Backward, Both} {
				ballSink += len(tr.Ball(v, 3, dir))
			}
		}
		tr.Release()
	}
	run() // grow the storage to the largest ball below
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%v allocations per 150 balls, want 0", allocs)
	}
}

// TestVisitBallNested: the callback may traverse the graph itself.
func TestVisitBallNested(t *testing.T) {
	g := MustBuild(randomGraph(30, 90, 1))
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
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the scratch never stays warm")
	}
	g := MustBuild(randomGraph(2000, 6000, 3))
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

// raceEnabled reports whether the test binary was built with -race,
// under which sync.Pool drops a quarter of its Puts and no pooled
// scratch stays warm.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// ballsSources builds a source list of the given size around start:
// consecutive ids (so balls overlap), the second a duplicate of the
// first when dup is set.
func ballsSources(g *Graph, start, size int, dup bool) []NodeID {
	srcs := make([]NodeID, size)
	for i := range srcs {
		srcs[i] = NodeID((start + i) % g.NumNodes())
	}
	if dup && size > 1 {
		srcs[1] = srcs[0]
	}
	return srcs
}

// TestVisitBallsMatchesBall pins the batched sweep to Ball: bit i is
// reported for node n at level d exactly when Ball(srcs[i]) contains
// (n, d), each (source, node) pair once, levels in order, for every
// direction, radius 0–4 (and math.MaxInt, which reaches what |V| does)
// and source lists below, at and above the batch width, with and without
// a repeated source.
func TestVisitBallsMatchesBall(t *testing.T) {
	type pair struct {
		src int
		n   NodeID
	}
	for seed := int64(0); seed < 4; seed++ {
		g := MustBuild(randomGraph(90, 200, seed))
		for _, dir := range []Direction{Forward, Backward, Both} {
			for _, hops := range []int{0, 1, 2, 3, 4, math.MaxInt} {
				for _, size := range []int{0, 1, 2, 63, 64, 65} {
					for _, dup := range []bool{false, true} {
						srcs := ballsSources(g, int(seed)*7, size, dup)
						got := map[pair]int32{}
						level := int32(0)
						taken := g.VisitBalls(srcs, hops, dir, func(n NodeID, d int32, mask uint64) uint64 {
							if d < level {
								t.Fatalf("level %d visited after level %d", d, level)
							}
							level = d
							if mask == 0 {
								t.Fatalf("node %d visited at level %d for no source", n, d)
							}
							for m := mask; m != 0; m &= m - 1 {
								p := pair{bits.TrailingZeros64(m), n}
								if _, twice := got[p]; twice {
									t.Fatalf("source %d reported node %d twice", p.src, n)
								}
								got[p] = d
							}
							return 0
						})
						if taken != min(size, MaxBallSources) {
							t.Fatalf("took %d of %d sources", taken, size)
						}
						want := map[pair]int32{}
						for i, s := range srcs[:taken] {
							for _, nd := range g.Ball(s, min(hops, g.NumNodes()), dir) {
								want[pair{i, nd.V}] = nd.D
							}
						}
						if !maps.Equal(got, want) {
							t.Fatalf("seed %d dir %d hops %d, %d sources (dup %v): sweep reported %d (source, node) pairs, the balls hold %d",
								seed, dir, hops, size, dup, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestVisitBallsRetire: a retired source reports nothing beyond the
// level it was retired in, whichever level and source that is, and
// every other source still reports its whole ball.
func TestVisitBallsRetire(t *testing.T) {
	g := MustBuild(randomGraph(90, 200, 2))
	srcs := ballsSources(g, 5, 40, false)
	const hops = 4
	for _, retireAt := range []int32{0, 1, 2, 3} {
		for _, victim := range []int{0, 17, 39} {
			counts := make([]int, len(srcs))
			g.VisitBalls(srcs, hops, Both, func(n NodeID, d int32, mask uint64) uint64 {
				for m := mask; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					if i == victim && d > retireAt {
						t.Fatalf("source %d retired at level %d still reports node %d at level %d", victim, retireAt, n, d)
					}
					counts[i]++
				}
				if d == retireAt {
					return 1 << uint(victim)
				}
				return 0
			})
			for i, s := range srcs {
				want := 0
				for _, nd := range g.Ball(s, hops, Both) {
					if i != victim || nd.D <= retireAt {
						want++
					}
				}
				if counts[i] != want {
					t.Fatalf("victim %d retired at level %d: source %d reported %d nodes, want %d", victim, retireAt, i, counts[i], want)
				}
			}
		}
	}
}

// TestVisitBallsNested: visit may run traversals of its own, a sweep
// included, and the scratch comes back clean for the next call.
func TestVisitBallsNested(t *testing.T) {
	g := MustBuild(randomGraph(60, 150, 1))
	srcs := ballsSources(g, 0, 10, false)
	count := func(nested bool) int {
		n := 0
		g.VisitBalls(srcs, 3, Both, func(u NodeID, _ int32, mask uint64) uint64 {
			if nested {
				g.VisitBalls([]NodeID{u, srcs[0]}, 2, Forward, func(NodeID, int32, uint64) uint64 { return 0 })
				_ = g.Ball(u, 2, Backward)
			}
			n += bits.OnesCount64(mask)
			return 0
		})
		return n
	}
	plain := count(false)
	if got := count(true); got != plain {
		t.Fatalf("nested traversals disturbed the outer sweep: %d pairs, want %d", got, plain)
	}
	if got := count(false); got != plain {
		t.Fatalf("the sweep after a nested one reports %d pairs, want %d", got, plain)
	}
}

// TestVisitBallsAllocs: on a warm scratch a sweep allocates nothing.
func TestVisitBallsAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the scratch never stays warm")
	}
	g := MustBuild(randomGraph(2000, 6000, 3))
	srcs := ballsSources(g, 0, MaxBallSources, false)
	n := 0
	visit := func(_ NodeID, _ int32, mask uint64) uint64 {
		n += bits.OnesCount64(mask)
		return 0
	}
	g.VisitBalls(srcs, 4, Both, visit) // grow the scratch
	if allocs := testing.AllocsPerRun(50, func() { g.VisitBalls(srcs, 4, Both, visit) }); allocs != 0 {
		t.Errorf("%v allocations per sweep, want 0", allocs)
	}
}

// TestVisitBallsConcurrent runs sweeps from several goroutines at once
// (under -race in CI): the pooled scratch must never be shared, and a
// scratch left dirty by one sweep would corrupt the next.
func TestVisitBallsConcurrent(t *testing.T) {
	g := MustBuild(randomGraph(300, 900, 9))
	g.WarmCaches()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				srcs := ballsSources(g, w*37+i, 1+(w+i)%MaxBallSources, false)
				hops := 1 + i%4
				got := 0
				g.VisitBalls(srcs, hops, Both, func(_ NodeID, _ int32, mask uint64) uint64 {
					got += bits.OnesCount64(mask)
					return 0
				})
				want := 0
				for _, s := range srcs {
					want += len(g.Ball(s, hops, Both))
				}
				if got != want {
					t.Errorf("worker %d sweep %d: %d pairs reported, the balls hold %d", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkBall and BenchmarkVisitBall are a pair: the same undirected
// radius-4 traversals over a 2k-node graph, materialized vs visited
// (full, and stopped after 96 nodes — the partner-set shape).
var ballSink int

func BenchmarkBall(b *testing.B) {
	g := MustBuild(randomGraph(2000, 5000, 7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ballSink += len(g.Ball(NodeID(i%2000), 4, Both))
	}
}

// BenchmarkTraverserBall is the star-table shape: directed radius-2 balls
// of a handful of nodes, one after another and dropped, by Ball and by
// one Traverser.
func BenchmarkTraverserBall(b *testing.B) {
	g := MustBuild(randomGraph(2000, 5000, 7))
	b.Run("ball", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ballSink += len(g.Ball(NodeID(i%2000), 2, Forward))
		}
	})
	b.Run("traverser", func(b *testing.B) {
		b.ReportAllocs()
		tr := g.Traverser()
		defer tr.Release()
		for i := 0; i < b.N; i++ {
			ballSink += len(tr.Ball(NodeID(i%2000), 2, Forward))
		}
	})
}

func BenchmarkVisitBall(b *testing.B) {
	g := MustBuild(randomGraph(2000, 5000, 7))
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
