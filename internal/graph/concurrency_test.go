package graph

import (
	"sync"
	"testing"
)

// TestConcurrentReads exercises parallel Ball/Dist/domain reads under
// the race detector (the scratch pool and warmed caches must be safe).
func TestConcurrentReads(t *testing.T) {
	g := MustBuild(randomGraph(200, 600, 7))
	g.WarmCaches()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := NodeID((seed*31 + i) % g.NumNodes())
				dst := NodeID((seed*17 + i*3) % g.NumNodes())
				g.Ball(src, 3, Direction(i%3))
				g.Dist(src, dst, 4)
				g.ActiveDomain("x")
				_ = g.Diameter()
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentLazyBuilds hits a cold graph from many goroutines
// without WarmCaches: the lazy diameter sweeps would race each other
// unless its sync.Once serializes them, and the domains are read beside
// them.
func TestConcurrentLazyBuilds(t *testing.T) {
	g := MustBuild(randomGraph(150, 450, 11))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g.ActiveDomain("x")
				_ = g.Diameter()
			}
		}()
	}
	wg.Wait()
}
