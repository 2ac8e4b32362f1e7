package match

import (
	"fmt"
	"sync"
	"testing"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// TestMatchConcurrentSharedMatcher runs Match from many goroutines over
// one shared Matcher and Cache — the exact sharing pattern the parallel
// chase engines use. Run under -race it proves the cache lock
// discipline and the singleflight handoff dynamically; the answers are
// additionally checked byte-identical to a sequential baseline.
func TestMatchConcurrentSharedMatcher(t *testing.T) {
	const (
		workers = 8
		rounds  = 50
	)
	g, q := keyFixture()
	// Query variants with different focus predicates share star tables
	// (focus columns are label-only), maximizing cache interaction.
	variants := []*query.Query{q}
	for _, bound := range []float64{150, 200, 300} {
		v := q.Clone()
		v.Nodes[v.Focus].Literals = []query.Literal{
			{Attr: "price", Op: graph.LE, Val: graph.N(bound)},
		}
		variants = append(variants, v)
	}

	baseline := make([]string, len(variants))
	seqM := NewMatcher(g, fixedDist{g}, NewCache(64, 0.95))
	for i, v := range variants {
		baseline[i] = fmt.Sprintf("%v", seqM.Match(v).Answer)
	}

	m := NewMatcher(g, fixedDist{g}, NewCache(64, 0.95))
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				vi := (w + i) % len(variants)
				got := fmt.Sprintf("%v", m.Match(variants[vi]).Answer)
				if got != baseline[vi] {
					select {
					case errs <- fmt.Sprintf("variant %d: concurrent answer %s, sequential %s", vi, got, baseline[vi]):
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if k := m.Cache.Counters(); k.Hits == 0 || k.Misses == 0 {
		t.Fatalf("stress run exercised no cache traffic (%+v)", k)
	}
}
