package match

import (
	"testing"

	"wqe/internal/anscache"
)

// TestCountersFullSnapshot pins the Counters snapshot the serving
// layer's /stats endpoint reports for the star cache: every counter
// Get/Put traffic can move does so when its event happens. A capacity-1
// single-shard cache makes evictions deterministic.
func TestCountersFullSnapshot(t *testing.T) {
	c := newCacheSharded(1, 0.95, 1)

	if got := c.Counters(); got != (anscache.Counters{}) {
		t.Fatalf("fresh cache counters = %+v, want all zero", got)
	}

	c.Put("a", &StarTable{}) // miss-free insert
	if c.Get("a") == nil {   // hit
		t.Fatal("a vanished")
	}
	if c.Get("b") != nil { // miss
		t.Fatal("phantom entry b")
	}
	c.Put("b", &StarTable{}) // capacity 1: must evict a
	if c.Get("a") != nil {   // miss (evicted)
		t.Fatal("a survived past capacity")
	}

	got := c.Counters()
	want := anscache.Counters{Hits: 1, Misses: 2, Size: 1, Evictions: 1}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
}
