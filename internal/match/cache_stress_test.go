package match

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheConcurrentStress hammers one star-view cache from many
// goroutines with interleaved Get/Put/Len/Counters. Run under -race it
// proves the core's "guarded by mu" annotations hold dynamically for
// the star cache's Get/Put traffic, not just under wqe-lint's lexical
// lockcheck.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		capacity = 32
		workers  = 8
		rounds   = 2000
		keys     = 64
	)
	c := NewCache(capacity, 0.9)
	tables := make([]*StarTable, keys)
	for i := range tables {
		tables[i] = &StarTable{}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (seed*31 + i) % keys
				key := fmt.Sprintf("star-%d", k)
				if got := c.Get(key); got == nil {
					c.Put(key, tables[k])
				}
				if i%64 == 0 {
					c.Len()
					c.Counters()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n < 1 || n > capacity {
		t.Fatalf("cache holds %d entries, want within [1, %d]", n, capacity)
	}
	if k := c.Counters(); k.Hits+k.Misses == 0 {
		t.Fatal("stress run recorded no cache traffic")
	}
	if c.Get("star-definitely-absent") != nil {
		t.Fatal("Get of an absent key returned a table")
	}
}
