package distindex

import (
	"math/rand"
	"slices"
	"testing"

	"wqe/internal/graph"
)

func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	gb := graph.NewBuilder()
	for i := 0; i < n; i++ {
		gb.AddNode("N", nil)
	}
	for i := 0; i < m; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			gb.AddEdge(a, b, "")
		}
	}
	return mustBuild(gb)
}

// TestPLLMatchesBFS cross-checks the pruned-landmark index against the
// BFS oracle on every node pair of random directed graphs — sparse,
// dense, and disconnected regimes.
func TestPLLMatchesBFS(t *testing.T) {
	shapes := []struct{ n, m int }{
		{12, 15},  // sparse, likely disconnected
		{20, 60},  // medium
		{15, 120}, // dense
		{10, 0},   // no edges at all
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			g := randomGraph(sh.n, sh.m, seed)
			pll := NewPLL(g)
			bfs := NewBFS(g)
			for a := 0; a < sh.n; a++ {
				for b := 0; b < sh.n; b++ {
					want := bfs.Dist(graph.NodeID(a), graph.NodeID(b))
					got := pll.Dist(graph.NodeID(a), graph.NodeID(b))
					if got != want {
						t.Fatalf("n=%d m=%d seed=%d: PLL dist(%d,%d)=%d, BFS=%d",
							sh.n, sh.m, seed, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestPLLChain checks exact distances and direction on a chain.
func TestPLLChain(t *testing.T) {
	gb := graph.NewBuilder()
	for i := 0; i < 8; i++ {
		gb.AddNode("N", nil)
	}
	for i := 0; i+1 < 8; i++ {
		gb.AddEdge(graph.NodeID(i), graph.NodeID(i+1), "")
	}
	g := mustBuild(gb)
	pll := NewPLL(g)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			want := b - a
			if b < a {
				want = graph.Unreachable
			}
			if got := pll.Dist(graph.NodeID(a), graph.NodeID(b)); got != want {
				t.Fatalf("dist(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
	if pll.LabelSize() == 0 {
		t.Error("index should carry labels")
	}
}

func TestWithin(t *testing.T) {
	g := randomGraph(15, 30, 3)
	pll := NewPLL(g)
	bfs := NewBFS(g)
	for a := 0; a < 15; a++ {
		for b := 0; b < 15; b++ {
			for bound := 0; bound <= 3; bound++ {
				pw := pll.Within(graph.NodeID(a), graph.NodeID(b), bound)
				bw := bfs.Within(graph.NodeID(a), graph.NodeID(b), bound)
				if pw != bw {
					t.Fatalf("Within(%d,%d,%d): PLL=%v BFS=%v", a, b, bound, pw, bw)
				}
			}
		}
	}
}

// TestWithinAgreesWithDist pins the early-exit fast path to the
// definition Within(s,t,b) ⇔ Dist(s,t) ≤ b on every pair, every bound
// up to the diameter and past it, across graph regimes — including the
// self-pair and negative-bound edges the merge loop never reaches.
func TestWithinAgreesWithDist(t *testing.T) {
	shapes := []struct{ n, m int }{
		{12, 15},  // sparse, likely disconnected
		{20, 60},  // medium
		{15, 120}, // dense
		{10, 0},   // edgeless: Within must be false off the diagonal
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			g := randomGraph(sh.n, sh.m, seed)
			pll := NewPLL(g)
			for a := 0; a < sh.n; a++ {
				for b := 0; b < sh.n; b++ {
					s, u := graph.NodeID(a), graph.NodeID(b)
					d := pll.Dist(s, u)
					for bound := -1; bound <= sh.n+1; bound++ {
						want := d != graph.Unreachable && d <= bound
						if got := pll.Within(s, u, bound); got != want {
							t.Fatalf("n=%d m=%d seed=%d: Within(%d,%d,%d)=%v, Dist=%d",
								sh.n, sh.m, seed, a, b, bound, got, d)
						}
					}
				}
			}
		}
	}
}

func TestAutoSelection(t *testing.T) {
	small := randomGraph(10, 12, 1)
	if _, ok := Auto(small).(*BFS); !ok {
		t.Error("Auto should pick BFS for small graphs")
	}
}

// labelsEqual compares two indexes label-for-label: same rank
// permutation, same per-node in/out lists, same (rank, d) entries in the
// same order.
func labelsEqual(t *testing.T, a, b *PLL) bool {
	t.Helper()
	return slices.Equal(a.rank, b.rank) &&
		slices.Equal(a.in.off, b.in.off) && slices.Equal(a.in.arena, b.in.arena) &&
		slices.Equal(a.out.off, b.out.off) && slices.Equal(a.out.arena, b.out.arena)
}

// TestPLLParallelBitIdentical pins the tentpole contract: the parallel
// construction produces the exact sequential index — every node's label
// lists entry-for-entry — across graph shapes, seeds, and worker
// counts (including workers exceeding the machine).
func TestPLLParallelBitIdentical(t *testing.T) {
	shapes := []struct{ n, m int }{
		{12, 15},   // tiny: below the seed threshold, sequential fallback
		{60, 150},  // sparse
		{80, 600},  // medium
		{50, 1200}, // dense
		{90, 0},    // edgeless
		{200, 700}, // larger than several batch doublings
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			g := randomGraph(sh.n, sh.m, seed)
			want := NewPLL(g)
			for _, workers := range []int{2, 3, 8} {
				got := NewPLLParallel(g, workers)
				if !labelsEqual(t, want, got) {
					t.Fatalf("n=%d m=%d seed=%d workers=%d: parallel labels differ from sequential (sizes %d vs %d)",
						sh.n, sh.m, seed, workers, want.LabelSize(), got.LabelSize())
				}
			}
		}
	}
}

// TestPLLParallelDistances cross-checks parallel-built distances
// against the BFS oracle directly, so a bug that broke both builds the
// same way could not hide behind the identity test.
func TestPLLParallelDistances(t *testing.T) {
	g := randomGraph(70, 300, 9)
	pll := NewPLLParallel(g, 4)
	bfs := NewBFS(g)
	for a := 0; a < 70; a++ {
		for b := 0; b < 70; b++ {
			if got, want := pll.Dist(graph.NodeID(a), graph.NodeID(b)), bfs.Dist(graph.NodeID(a), graph.NodeID(b)); got != want {
				t.Fatalf("parallel PLL dist(%d,%d)=%d, BFS=%d", a, b, got, want)
			}
		}
	}
}

// TestPLLChainParallel: the deterministic chain case through the
// parallel path (chain length exceeds the seed count, so the batched
// phase actually runs).
func TestPLLChainParallel(t *testing.T) {
	gb := graph.NewBuilder()
	const n = 40
	for i := 0; i < n; i++ {
		gb.AddNode("N", nil)
	}
	for i := 0; i+1 < n; i++ {
		gb.AddEdge(graph.NodeID(i), graph.NodeID(i+1), "")
	}
	g := mustBuild(gb)
	if !labelsEqual(t, NewPLL(g), NewPLLParallel(g, 3)) {
		t.Fatal("chain labels differ between sequential and parallel builds")
	}
}

func BenchmarkPLLBuild(b *testing.B) {
	g := randomGraph(2000, 6000, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPLL(g)
	}
}

func BenchmarkPLLBuildParallel(b *testing.B) {
	g := randomGraph(2000, 6000, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPLLParallel(g, 0)
	}
}

func BenchmarkPLLQuery(b *testing.B) {
	g := randomGraph(2000, 6000, 42)
	pll := NewPLL(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pll.Dist(graph.NodeID(i%2000), graph.NodeID((i*7)%2000))
	}
}

func BenchmarkBFSQuery(b *testing.B) {
	g := randomGraph(2000, 6000, 42)
	bfs := NewBFS(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfs.Dist(graph.NodeID(i%2000), graph.NodeID((i*7)%2000))
	}
}

// mustBuild returns gb's graph; the tests' graphs hold only values the
// door admits.
func mustBuild(gb *graph.Builder) *graph.Graph {
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return g
}
