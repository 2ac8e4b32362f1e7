package match

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"wqe/internal/anscache"
)

// TestShardCountResolution pins the shard-count rules: NewCache (and any
// count ≤0) means four stripes per logical CPU, and every count rounds
// up to the next power of two.
func TestShardCountResolution(t *testing.T) {
	auto := 1
	for auto < 4*runtime.GOMAXPROCS(0) {
		auto <<= 1
	}
	if got := NewCache(64, 0.95).Shards(); got != auto {
		t.Fatalf("NewCache shards = %d, want nextPow2(4×GOMAXPROCS) = %d", got, auto)
	}
	for _, tc := range []struct{ in, want int }{
		{-1, auto}, {0, auto}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := newCacheSharded(64, 0.95, tc.in).Shards(); got != tc.want {
			t.Errorf("shards=%d resolved to %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

// starKey is a realistic star-key shape for shard-spread tests.
func starKey(i int) string { return fmt.Sprintf("g1|star|c=phone|e%d>store@2", i) }

// TestShardCapacitySplit checks the shard capacities add up to the
// requested capacity, and the ≥1-per-shard floor when the capacity is
// below the shard count: a flood of distinct star keys settles at
// exactly the effective capacity max(capacity, shards). (The exact
// per-shard split is pinned next to the core, in internal/anscache.)
func TestShardCapacitySplit(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, want int }{
		{10, 4, 10}, // 3+3+2+2
		{2, 8, 8},   // floor of one table per shard
	} {
		c := newCacheSharded(tc.capacity, 0.95, tc.shards)
		for i := 0; i < 512; i++ {
			c.Put(starKey(i), &StarTable{})
		}
		if c.Len() != tc.want {
			t.Errorf("capacity %d over %d shards holds %d tables, want %d",
				tc.capacity, tc.shards, c.Len(), tc.want)
		}
	}
}

// TestShardMappingStable checks the shard mapping is a pure function of
// the key and spreads a realistic star-key population over every
// stripe: with one slot per shard, 256 star keys must leave all four
// stripes occupied, and replaying them leaves the same four residents.
func TestShardMappingStable(t *testing.T) {
	residents := func() string {
		c := newCacheSharded(4, 0.95, 4)
		for i := 0; i < 256; i++ {
			c.Put(starKey(i), &StarTable{})
		}
		if c.Len() != 4 {
			t.Fatalf("256 star keys occupy %d of 4 one-slot shards; FNV-1a spread broken", c.Len())
		}
		var live []string
		for i := 0; i < 256; i++ {
			if c.Get(starKey(i)) != nil {
				live = append(live, starKey(i))
			}
		}
		return strings.Join(live, ",")
	}
	if a, b := residents(), residents(); a != b {
		t.Fatalf("shard mapping not stable: residents {%s} then {%s}", a, b)
	}
}

// TestShardedEvictionDeterministic is the sharded-eviction determinism
// gate: a 2-shard cache is filled to capacity by concurrent workers
// (equal-hit entries — each key inserted exactly once, never read), the
// overflow inserts then evict deterministically, and the evicted key
// set must be byte-identical across 10 seeded runs. Run under -race
// (make race) this also proves the per-shard lock discipline while the
// interleavings vary; determinism must hold anyway, because eviction
// scans a shard's map with the smallest-key tie-break and the shard a
// key lives on is a pure function of the key — the fill *order* never
// matters once the fill *set* is fixed.
func TestShardedEvictionDeterministic(t *testing.T) {
	const (
		capacity = 8
		shards   = 2
		fill     = capacity // fills both shards exactly to capacity
		overflow = 6
		workers  = 4
		runs     = 10
	)
	// Pick fill keys that land capacity/2 on each shard so the fill
	// phase itself never evicts (insertion order into a non-full shard
	// cannot change its final set): a candidate joins only if a cache
	// holding it and the keys so far evicts nothing.
	fits := func(keys []string) bool {
		c := newCacheSharded(capacity, 0.95, shards)
		for _, k := range keys {
			c.Put(k, &StarTable{})
		}
		return c.Counters().Evictions == 0
	}
	var fillKeys []string
	for i := 0; len(fillKeys) < fill; i++ {
		if with := append(fillKeys[:len(fillKeys):len(fillKeys)], fmt.Sprintf("fill-%03d", i)); fits(with) {
			fillKeys = with
		}
	}
	overflowKeys := make([]string, overflow)
	for i := range overflowKeys {
		overflowKeys[i] = fmt.Sprintf("over-%03d", i)
	}

	victims := func(seed int) string {
		c := newCacheSharded(capacity, 0.95, shards)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker inserts a seeded, disjoint stripe of the fill
				// set; the interleaving across workers is up to the
				// scheduler.
				for i := w; i < len(fillKeys); i += workers {
					c.Put(fillKeys[(i+seed)%len(fillKeys)], &StarTable{})
				}
			}(w)
		}
		wg.Wait()
		if n := c.Len(); n != capacity {
			t.Fatalf("seed %d: fill phase holds %d entries, want %d (no evictions)", seed, n, capacity)
		}
		for _, k := range overflowKeys {
			c.Put(k, &StarTable{})
		}
		var evicted []string
		for _, k := range append(append([]string{}, fillKeys...), overflowKeys...) {
			if c.Get(k) == nil {
				evicted = append(evicted, k)
			}
		}
		sort.Strings(evicted)
		return strings.Join(evicted, ",")
	}

	ref := victims(0)
	if ref == "" {
		t.Fatal("overflow inserts evicted nothing; the test exercises no eviction")
	}
	for seed := 1; seed < runs; seed++ {
		if got := victims(seed); got != ref {
			t.Fatalf("seed %d evicted {%s}, seed 0 evicted {%s}: sharded eviction is order-dependent", seed, got, ref)
		}
	}
}

// TestShardedStatsAtomic checks Len and Counters hold exact aggregates
// across shards without locking: the counts must add up after a burst
// of cross-shard traffic.
func TestShardedStatsAtomic(t *testing.T) {
	c := newCacheSharded(64, 0.95, 4)
	const keys = 32
	for i := 0; i < keys; i++ {
		c.Put(fmt.Sprintf("k%02d", i), &StarTable{})
	}
	if n := c.Len(); n != keys {
		t.Fatalf("Len = %d after %d distinct puts, want %d", n, keys, keys)
	}
	for i := 0; i < keys; i++ {
		if c.Get(fmt.Sprintf("k%02d", i)) == nil {
			t.Fatalf("k%02d missing", i)
		}
	}
	c.Get("absent")
	want := anscache.Counters{Hits: keys, Misses: 1, Size: keys}
	if got := c.Counters(); got != want {
		t.Fatalf("Counters = %+v, want %+v", got, want)
	}
}

// TestSingleShardMatchesLegacySemantics pins that shards=1 reproduces
// the un-striped cache: whole-cache capacity, global smallest-key
// eviction, one singleflight table.
func TestSingleShardMatchesLegacySemantics(t *testing.T) {
	c := newCacheSharded(3, 0.95, 1)
	for _, k := range []string{"c", "a", "b", "d"} {
		c.Put(k, &StarTable{})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", c.Len())
	}
	if c.Get("a") != nil {
		t.Fatal("single-shard eviction should have dropped the smallest key \"a\"")
	}
}
