package anscache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"wqe/internal/par"
)

// TestHitMissStore pins the basic memo contract: first access computes,
// second is a hit with the same value, and store=false keeps the value
// out of the memo.
func TestHitMissStore(t *testing.T) {
	c := New[string](8, 1)
	computes := 0
	get := func(key, val string, store bool) (string, Outcome) {
		return c.GetOrCompute(key, func() (string, bool) {
			computes++
			return val, store
		})
	}

	v, o := get("k", "answer", true)
	if v != "answer" || o != Miss || computes != 1 {
		t.Fatalf("first access: v=%q o=%v computes=%d", v, o, computes)
	}
	v, o = get("k", "SHOULD NOT RUN", true)
	if v != "answer" || o != Hit || computes != 1 {
		t.Fatalf("second access: v=%q o=%v computes=%d", v, o, computes)
	}

	v, o = get("err", "transient", false)
	if v != "transient" || o != Miss {
		t.Fatalf("unstored access: v=%q o=%v", v, o)
	}
	v, o = get("err", "recomputed", false)
	if v != "recomputed" || o != Miss || computes != 3 {
		t.Fatalf("unstored re-access: v=%q o=%v computes=%d (store=false must not memoize)", v, o, computes)
	}

	got := c.Counters()
	if got.Hits != 1 || got.Misses != 3 || got.Coalesced != 0 || got.Size != 1 {
		t.Fatalf("counters = %+v", got)
	}

	// Plain Get/Put, the star cache's lookaside path: Put stores (and
	// refreshes), Get returns the resident value or V's zero, each Get
	// counts a hit or a miss, and neither runs a compute.
	c.Put("p", "v1")
	c.Put("p", "v2")
	if v := c.Get("p"); v != "v2" {
		t.Fatalf("Get after Put/refresh = %q, want v2", v)
	}
	if v := c.Get("absent"); v != "" {
		t.Fatalf("Get of an absent key = %q, want the zero value", v)
	}
	if v, o := get("p", "SHOULD NOT RUN", true); v != "v2" || o != Hit {
		t.Fatalf("GetOrCompute after Put: v=%q o=%v, want the Put value as a Hit", v, o)
	}
	want := Counters{Hits: 3, Misses: 4, Size: 2}
	if got := c.Counters(); got != want || computes != 3 || c.Len() != 2 {
		t.Fatalf("after Get/Put: counters = %+v (want %+v), computes = %d, Len = %d", got, want, computes, c.Len())
	}
}

// TestCoalescing: concurrent identical requests share exactly one
// compute and all receive the same value. The owner's compute blocks on
// a gate so the other callers pile up as waiters; whatever the
// interleaving, exactly one compute runs and every caller gets the
// owner's value (late arrivals after commit are hits, which is equally
// correct).
func TestCoalescing(t *testing.T) {
	c := New[int](8, 1)
	var computes atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{})

	const K = 8
	vals := make([]int, K)
	var g par.Group
	for i := 0; i < K; i++ {
		i := i
		g.Go(func() {
			v, _ := c.GetOrCompute("q", func() (int, bool) {
				computes.Add(1)
				close(entered)
				<-gate
				return 42, true
			})
			vals[i] = v
		})
	}
	<-entered
	// Give the remaining callers time to reach the flight wait; the
	// strict assertions below hold for any interleaving regardless.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	g.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want exactly 1", n)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	got := c.Counters()
	if got.Misses != 1 || got.Hits+got.Coalesced != K-1 {
		t.Fatalf("counters = %+v, want 1 miss and %d hits+coalesced", got, K-1)
	}
	if got.Coalesced < 1 {
		t.Fatalf("counters = %+v, want at least one coalesced waiter", got)
	}
}

// TestPanicSafety: a panicking compute propagates to its own caller,
// wakes the waiters, and the first retrier becomes the new owner — the
// key is never poisoned (the regression the star-view cache fixed in
// PR 5, inherited here).
func TestPanicSafety(t *testing.T) {
	c := New[int](8, 1)
	gate := make(chan struct{})
	entered := make(chan struct{})

	var g par.Group
	panicked := make(chan interface{}, 1)
	g.Go(func() {
		defer func() { panicked <- recover() }()
		c.GetOrCompute("q", func() (int, bool) {
			close(entered)
			<-gate
			panic("compute exploded")
		})
	})
	<-entered

	waiterDone := make(chan int, 1)
	g.Go(func() {
		v, _ := c.GetOrCompute("q", func() (int, bool) { return 7, true })
		waiterDone <- v
	})
	time.Sleep(50 * time.Millisecond)
	close(gate)

	if r := <-panicked; r != "compute exploded" {
		t.Fatalf("owner recover = %v, want its own panic", r)
	}
	select {
	case v := <-waiterDone:
		if v != 7 {
			t.Fatalf("waiter got %d, want 7 from its retry", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged after owner panic — flight not cleaned up")
	}
	g.Wait()

	if v, o := c.GetOrCompute("q", func() (int, bool) { return -1, true }); v != 7 || o != Hit {
		t.Fatalf("after retry: v=%d o=%v, want resident 7", v, o)
	}
}

// TestEvictionDeterministic pins the smallest-key tie-break: with a
// full single-shard cache of equal-hit entries, inserting one more must
// evict the smallest key, and replaying the same sequence leaves the
// same residents.
func TestEvictionDeterministic(t *testing.T) {
	run := func() (evicted, kept Outcome) {
		c := New[int](2, 1)
		get := func(k string) Outcome {
			_, o := c.GetOrCompute(k, func() (int, bool) { return 1, true })
			return o
		}
		get("x")
		get("y")
		get("z") // full shard, x and y tied at one hit each: x (smallest) evicted
		if got := c.Counters(); got.Evictions != 1 || got.Size != 2 {
			t.Fatalf("counters after overflow = %+v", got)
		}
		// Probe the survivor first: probing the evicted key re-inserts it
		// and would evict the survivor before we checked it.
		kept = get("y")
		evicted = get("x")
		return evicted, kept
	}
	e1, k1 := run()
	e2, k2 := run()
	if e1 != Miss || k1 != Hit {
		t.Fatalf("after overflow: x=%v y=%v, want x evicted (Miss) and y resident (Hit)", e1, k1)
	}
	if e1 != e2 || k1 != k2 {
		t.Fatalf("replay diverged: (%v,%v) vs (%v,%v)", e1, k1, e2, k2)
	}

	// Least-hit replacement: hits outrank key order. "a" is the smallest
	// key but the hottest entry, so the overflow evicts cold "b".
	c := New[int](2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	for i := 0; i < 5; i++ {
		c.Get("a")
	}
	c.Put("c", 3)
	if c.Get("a") != 1 || c.Get("b") != 0 || c.Get("c") != 3 {
		t.Fatalf("least-hit eviction kept the wrong entries: a=%d b=%d c=%d",
			c.Get("a"), c.Get("b"), c.Get("c"))
	}
}

// TestCapacitySplit pins the construction rules both caches' contents
// depend on: shard counts round up to a power of two (≤0 means
// defaultShards), capacity splits as capacity/N with the remainder on
// the low shards and a floor of one entry per shard, and an
// out-of-range decay falls back to defaultDecay.
func TestCapacitySplit(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, defaultShards()}, {0, defaultShards()}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := New[int](64, tc.in).Shards(); got != tc.want {
			t.Errorf("shards=%d resolved to %d, want %d", tc.in, got, tc.want)
		}
	}
	caps := func(c *Cache[int]) []int {
		out := make([]int, len(c.shards))
		for i := range c.shards {
			out[i] = c.shards[i].cap
		}
		return out
	}
	for _, tc := range []struct {
		capacity, shards int
		want             []int
	}{
		{10, 4, []int{3, 3, 2, 2}}, // 10/4 = 2 rem 2: shards 0,1 get the extra
		{2, 4, []int{1, 1, 1, 1}},  // capacity < shards: the floor of one each
		{0, 2, []int{1, 1}},        // capacity < 1 means 1, then the floor
		{7, 1, []int{7}},           // un-striped: whole-cache capacity
	} {
		if got := caps(New[int](tc.capacity, tc.shards)); !slices.Equal(got, tc.want) {
			t.Errorf("capacity %d over %d shards split %v, want %v", tc.capacity, tc.shards, got, tc.want)
		}
	}
	for _, tc := range []struct{ in, want float64 }{
		{0.5, 0.5}, {1, 1}, {0, defaultDecay}, {-1, defaultDecay}, {1.5, defaultDecay},
	} {
		if got := NewDecay[int](8, 2, tc.in).shards[1].decay; got != tc.want {
			t.Errorf("decay %v resolved to %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestDecayOrdering: hit counts decay on the shard's tick clock at the
// cache's own rate (applied when an entry is next touched), so an early
// burst of hits is worth about one hit after a stretch of other keys'
// traffic — and keeps its full weight in a cache built with decay 1.
func TestDecayOrdering(t *testing.T) {
	victim := func(decay float64) string {
		c := NewDecay[int](2, 1, decay)
		c.Put("old", 1)
		for i := 0; i < 10; i++ {
			c.Get("old") // decay 1: 11 hits; decay 0.5: just under 2
		}
		c.Put("new", 2)
		for i := 0; i < 5; i++ {
			c.Get("new") // decay 1: 6 hits; decay 0.5: just under 2
		}
		c.Get("old") // 7 ticks idle: decay 1 → 12 hits; decay 0.5 → 2·0.5⁷+1 ≈ 1.02
		c.Put("third", 3)
		switch {
		case c.Get("old") == 0:
			return "old"
		case c.Get("new") == 0:
			return "new"
		}
		return "none"
	}
	if got := victim(0.5); got != "old" {
		t.Errorf("decay 0.5 evicted %s, want old (its early hits decayed away)", got)
	}
	if got := victim(1); got != "new" {
		t.Errorf("decay 1 evicted %s, want new (hit counts never decay: 6 < 12)", got)
	}
}

// TestBumpClosedFormMatchesLoop checks the closed form agrees with the
// definitional per-tick decay on moderate ages.
func TestBumpClosedFormMatchesLoop(t *testing.T) {
	const decay = 0.9
	c := NewDecay[int](8, 1, decay)
	c.Put("k", 1)
	sh := c.shardFor("k")
	sh.mu.Lock()
	e := sh.entries["k"]
	e.hits = 5
	age := int64(37)
	sh.tick = e.lastTick + age
	sh.bumpLocked(e)
	got := e.hits
	sh.mu.Unlock()

	want := 5.0
	for i := int64(0); i < age; i++ {
		want *= decay
	}
	want++
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("closed-form bump = %v, per-tick loop gives %v", got, want)
	}
}

// TestBumpSurvivesHugeTickGap is the regression test for the O(age)
// decay spin: bumping an entry whose last touch lies far in the past
// must complete instantly (the old per-tick loop under the shard lock
// would run for minutes), and past maxDecayAge the decayed mass is
// flushed to exactly one fresh hit — one tick earlier it is not.
func TestBumpSurvivesHugeTickGap(t *testing.T) {
	hitsAfterGap := func(gap int64) float64 {
		c := New[int](8, 1)
		c.Put("k", 1)
		sh := c.shardFor("k")
		sh.mu.Lock()
		sh.entries["k"].hits = 1e300 // survives 0.95^4096 ≈ 1e-91 unless flushed
		sh.tick += gap - 1           // Get's own tick completes the gap
		sh.mu.Unlock()

		start := time.Now()
		if c.Get("k") != 1 {
			t.Fatal("entry vanished")
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("bump across a %d-tick gap took %v; decay must be closed-form", gap, d)
		}
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.entries["k"].hits
	}
	if hits := hitsAfterGap(1_000_000_000_000); hits != 1 {
		t.Fatalf("hits after a trillion-tick gap = %v, want exactly 1", hits)
	}
	if hits := hitsAfterGap(maxDecayAge + 1); hits != 1 {
		t.Fatalf("hits one tick past maxDecayAge = %v, want the flush to exactly 1", hits)
	}
	if hits := hitsAfterGap(maxDecayAge); hits <= 1 {
		t.Fatalf("hits at maxDecayAge = %v, want decayed mass plus one (no flush yet)", hits)
	}
}

// TestConcurrentStress hammers a small cache from many workers with
// overlapping keys and evictions — the -race sweep for the stripe
// discipline. Every caller must get the value its key's compute
// produces.
func TestConcurrentStress(t *testing.T) {
	c := New[int](16, 4)
	const workers, iters, keys = 8, 500, 32
	par.ForEach(workers, workers, func(w int) {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		for i := 0; i < iters; i++ {
			k := rng.Intn(keys)
			key := fmt.Sprintf("k%02d", k)
			v, _ := c.GetOrCompute(key, func() (int, bool) { return k * 10, true })
			if v != k*10 {
				t.Errorf("key %s got %d, want %d", key, v, k*10)
				return
			}
		}
	})
	got := c.Counters()
	if got.Hits+got.Misses+got.Coalesced != workers*iters {
		t.Fatalf("outcome counters %+v don't sum to %d calls", got, workers*iters)
	}
	if got.Size > 16+4 { // cap may round up by shard floors only
		t.Fatalf("size %d exceeds capacity", got.Size)
	}
}

// worstByScan is the eviction scan the victims heap replaced, kept as
// its oracle: the least-hit entry over the whole shard map, ties going
// to the smallest key. ok is false for an empty shard. The caller must
// hold s.mu.
func worstByScan[V any](s *shard[V]) (worstKey string, ok bool) {
	worst := 0.0
	for k, e := range s.entries {
		switch {
		case !ok:
			worstKey, worst, ok = k, e.hits, true
		case e.hits < worst:
			worstKey, worst = k, e.hits
		case e.hits > worst:
		case k < worstKey: // equal hits: smallest key loses
			worstKey = k
		}
	}
	return worstKey, ok
}

// checkVictims holds every shard's heap to the map it indexes and to
// the scan: the heap invariant holds, each entry's pos is its index and
// its key maps to it, and the root is the entry worstByScan picks.
func checkVictims[V any](t *testing.T, c *Cache[V], step string) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		h := s.victims
		if len(h) != len(s.entries) {
			t.Fatalf("%s: shard %d heap holds %d entries, map %d", step, i, len(h), len(s.entries))
		}
		for j, e := range h {
			if e.pos != j {
				t.Fatalf("%s: shard %d entry %q at heap index %d stores pos %d", step, i, e.key, j, e.pos)
			}
			if s.entries[e.key] != e {
				t.Fatalf("%s: shard %d heap entry %q is not the map's", step, i, e.key)
			}
			if j > 0 && h.Less(j, (j-1)/2) {
				t.Fatalf("%s: shard %d heap invariant broken at index %d (%q, %v hits) under its parent (%q, %v)",
					step, i, j, e.key, e.hits, h[(j-1)/2].key, h[(j-1)/2].hits)
			}
		}
		if want, ok := worstByScan(s); ok && h[0].key != want {
			t.Fatalf("%s: shard %d next victim %q (%v hits), the scan picks %q (%v hits)",
				step, i, h[0].key, h[0].hits, want, s.entries[want].hits)
		}
		s.mu.Unlock()
	}
}

// TestVictimsHeapMatchesScan drives random sequences of every operation
// over small caches and checks the victims heap after each one. Decay 1
// leaves many entries tied on whole hit counts; decay 0.5 across tick
// gaps beyond maxDecayAge flushes bumped entries to exactly one hit, so
// both exercise the smallest-key tie-break as well as the hit order.
func TestVictimsHeapMatchesScan(t *testing.T) {
	for _, decay := range []float64{1, 0.5} {
		for _, shards := range []int{1, 2, 4} {
			for capacity := 1; capacity <= 16; capacity++ {
				name := fmt.Sprintf("decay%v/shards%d/cap%d", decay, shards, capacity)
				t.Run(name, func(t *testing.T) {
					driveVictims(t, NewDecay[int](capacity, shards, decay), decay,
						rand.New(rand.NewSource(int64(capacity*100+shards))))
				})
			}
		}
	}
}

func driveVictims(t *testing.T, c *Cache[int], decay float64, rng *rand.Rand) {
	const ops, keys = 400, 24
	compute := func(k int, store bool) func() (int, bool) {
		return func() (int, bool) { return k, store }
	}
	for i := 0; i < ops; i++ {
		k := rng.Intn(keys)
		key := fmt.Sprintf("k%d", k)
		var step string
		switch r := rng.Intn(100); {
		case r < 30:
			step = "Get " + key
			c.Get(key)
		case r < 50:
			step = "Put " + key
			c.Put(key, k)
		case r < 80:
			step = "GetOrCompute " + key
			c.GetOrCompute(key, compute(k, true))
		case r < 88:
			step = "GetOrCompute (declines to store) " + key
			c.GetOrCompute(key, compute(k, false))
		case r < 94:
			step = "GetOrCompute (panics) " + key
			ran := false // a resident key is a hit: no compute runs
			func() {
				defer func() {
					if panicked := recover() != nil; panicked != ran {
						t.Fatalf("op %d: %s: compute ran %v, panicked %v", i, step, ran, panicked)
					}
				}()
				c.GetOrCompute(key, func() (int, bool) { ran = true; panic("compute exploded") })
			}()
		default:
			if decay == 1 {
				step = "Get " + key
				c.Get(key)
				break
			}
			s := c.shardFor(key)
			gap := int64(maxDecayAge + 1 + rng.Intn(64))
			step = fmt.Sprintf("tick gap %d", gap)
			s.mu.Lock()
			s.tick += gap
			s.mu.Unlock()
		}
		checkVictims(t, c, fmt.Sprintf("op %d (%s)", i, step))
	}
}

// BenchmarkCachePutFull times an evicting Put: a full 4096-entry cache
// over 8 shards, every key new, so each Put evicts the least-hit entry
// of its shard (≈ 512 entries).
func BenchmarkCachePutFull(b *testing.B) {
	const capacity = 4096
	c := New[int](capacity, 8)
	for i := 0; i < capacity; i++ {
		c.Put(fmt.Sprintf("k%08d", i), i)
	}
	for i := 0; i < capacity; i += 3 {
		c.Get(fmt.Sprintf("k%08d", i)) // a spread of hit counts
	}
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("n%08d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 && i > 0 {
			b.StopTimer()
			for j := range keys {
				keys[j] = fmt.Sprintf("n%08d", i+j)
			}
			b.StartTimer()
		}
		c.Put(keys[i%len(keys)], i)
	}
	if got := c.Counters().Evictions; got < int64(b.N) {
		b.Fatalf("%d evictions for %d Puts: not every Put evicted", got, b.N)
	}
}
