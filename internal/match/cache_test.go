package match

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wqe/internal/anscache"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// newCacheSharded is NewCache with an explicit shard count (1 pins every
// key onto one eviction scan), for tests that need deterministic
// whole-cache capacity semantics.
func newCacheSharded(capacity int, decay float64, shards int) *Cache {
	return anscache.NewDecay[*StarTable](capacity, shards, decay)
}

// getOrBuild fetches key through the matcher's path: GetOrCompute with
// an always-stored build.
func getOrBuild(c *Cache, key string, build func() *StarTable) *StarTable {
	t, _ := c.GetOrCompute(key, func() (*StarTable, bool) { return build(), true })
	return t
}

// TestEvictionDeterministicOnTies fills a single-shard cache with
// equal-hit entries and checks the eviction victim is always the
// smallest key, run after run — map iteration order must not leak into
// cache contents. (Single shard pins every key onto one eviction scan;
// the sharded variants live in cache_shard_test.go.)
func TestEvictionDeterministicOnTies(t *testing.T) {
	for run := 0; run < 20; run++ {
		c := newCacheSharded(4, 0.95, 1)
		for _, k := range []string{"d", "b", "c", "a"} {
			c.Put(k, &StarTable{})
		}
		// All four entries decay identically; inserting a fifth must
		// evict "a", the smallest key among the least-hit.
		c.Put("e", &StarTable{})
		if c.Get("a") != nil {
			t.Fatalf("run %d: tie eviction kept \"a\"", run)
		}
		for _, k := range []string{"b", "c", "d", "e"} {
			if c.Get(k) == nil {
				t.Fatalf("run %d: tie eviction dropped %q instead of \"a\"", run, k)
			}
		}
	}
}

// TestGetOrBuildSingleflight hammers one key from many goroutines and
// checks the table is built exactly once, everyone gets that table, and
// exactly one caller is accounted the miss.
func TestGetOrBuildSingleflight(t *testing.T) {
	const workers = 16
	c := NewCache(8, 0.95)
	want := &StarTable{}
	var builds atomic.Int32
	var ready, done sync.WaitGroup
	ready.Add(workers)
	done.Add(workers)
	results := make([]*StarTable, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			ready.Done()
			ready.Wait() // maximize contention on the cold key
			results[i] = getOrBuild(c, "hot", func() *StarTable {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return want
			})
		}(i)
	}
	done.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("buildStarTable ran %d times for one key, want 1", n)
	}
	for i, got := range results {
		if got != want {
			t.Fatalf("caller %d got table %p, want the in-flight build %p", i, got, want)
		}
	}
	if k := c.Counters(); k.Misses != 1 || k.Hits+k.Coalesced != workers-1 {
		t.Fatalf("counters = %+v, want 1 miss and %d hits+coalesced", k, workers-1)
	}
	if c.Get("hot") != want {
		t.Fatal("table was not committed to the cache after the flight")
	}
}

// TestGetOrBuildHitSkipsBuild checks a warm key never invokes build.
func TestGetOrBuildHitSkipsBuild(t *testing.T) {
	c := NewCache(8, 0.95)
	want := &StarTable{}
	c.Put("k", want)
	got := getOrBuild(c, "k", func() *StarTable {
		t.Fatal("build ran on a cache hit")
		return nil
	})
	if got != want {
		t.Fatalf("GetOrCompute returned %p, want cached %p", got, want)
	}
	if hits := c.Counters().Hits; hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// TestGetOrBuildPanicDoesNotLeakFlight is the regression test for the
// singleflight panic leak: before the fix, a panicking build left
// f.done open and the inflight entry in place, so every concurrent and
// future caller of the same key blocked forever. Now the panic must
// propagate to the panicking builder's caller, a waiter blocked on the
// doomed flight must wake and complete with its own build, and a fresh
// caller must find no stale in-flight state.
func TestGetOrBuildPanicDoesNotLeakFlight(t *testing.T) {
	c := NewCache(8, 0.95)
	want := &StarTable{}
	inBuild := make(chan struct{})
	release := make(chan struct{})

	// A waiter that arrives while the doomed build is in flight. It
	// must not inherit the panic — it retries and builds successfully.
	waiterDone := make(chan *StarTable, 1)
	go func() {
		<-inBuild
		waiterDone <- getOrBuild(c, "boom", func() *StarTable { return want })
	}()

	panicked := make(chan interface{}, 1)
	go func() {
		defer func() { panicked <- recover() }()
		getOrBuild(c, "boom", func() *StarTable {
			close(inBuild)
			<-release // hold the flight open until the waiter is queued
			panic("star build exploded")
		})
	}()

	<-inBuild
	// Give the waiter a moment to block on the in-flight build before
	// the builder panics; correctness does not depend on winning this
	// race (a late waiter just becomes the fresh builder).
	time.Sleep(10 * time.Millisecond)
	close(release)

	if r := <-panicked; r == nil {
		t.Fatal("the panicking builder's caller must see the panic")
	} else if r != "star build exploded" {
		t.Fatalf("panic value = %v, want the original", r)
	}

	select {
	case got := <-waiterDone:
		if got != want {
			t.Fatalf("waiter completed with %p, want its own rebuild %p", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the build panicked: flight leaked")
	}

	// A fresh caller must complete too, and the key must be buildable.
	done := make(chan *StarTable, 1)
	go func() {
		done <- getOrBuild(c, "boom", func() *StarTable { return want })
	}()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("fresh caller got %p, want %p", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fresh caller blocked: stale inflight entry survived the panic")
	}
}

// TestWeightDisabledKeepsCountSemantics: the star cache is bounded by
// entry count alone. A table's size plays no part in admission or
// eviction, so two huge tables fit a capacity-2 cache and nothing is
// turned away.
func TestWeightDisabledKeepsCountSemantics(t *testing.T) {
	huge := func() *StarTable {
		return &StarTable{centers: make([]graph.NodeID, 1000)}
	}
	c := newCacheSharded(2, 0.95, 1)
	c.Put("a", huge())
	c.Put("b", huge())
	if k := c.Counters(); k.Size != 2 || k.Evictions != 0 {
		t.Fatalf("count-capacity cache reacted to table size: %+v", k)
	}
	if c.Get("a") == nil || c.Get("b") == nil {
		t.Fatal("a huge table was denied residency")
	}
}

// TestMatchColdStarCoalesces pins the counter split the matcher reports
// through the core: K callers needing one cold star table — a builder
// holding the flight open and K−1 workers inside Matcher.Match — are
// one Miss (the table is built once) and K−1 Coalesced waits.
func TestMatchColdStarCoalesces(t *testing.T) {
	g := randomGraph(40, 120, 5)
	q := query.New()
	u := q.AddNode("A")
	v := q.AddNode("B")
	q.AddEdge(u, v, 2)
	q.Focus = u
	stars := Decompose(q)
	if len(stars) != 1 {
		t.Fatalf("want a one-star query, got %d stars", len(stars))
	}
	m := NewMatcher(g, distindex.NewBFS(g), NewCache(8, 0.95))
	key := m.keyPrefix + stars[0].Key(q)
	want := NewMatcher(g, distindex.NewBFS(g), nil).Match(q).Answer

	const K = 8
	inBuild := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the builder: owns the flight until released
		defer wg.Done()
		getOrBuild(m.Cache, key, func() *StarTable {
			close(inBuild)
			<-release
			return BuildStarTable(g, q, stars[0])
		})
	}()
	<-inBuild

	var started sync.WaitGroup
	started.Add(K - 1)
	answers := make([][]graph.NodeID, K-1)
	for i := 0; i < K-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			answers[i] = m.Match(q).Answer
		}(i)
	}
	started.Wait()
	// Every Match caller is now microseconds from the flight wait and
	// none can return before release; give them time to get there.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if k := m.Cache.Counters(); k.Misses != 1 || k.Coalesced != K-1 || k.Hits != 0 {
		t.Fatalf("counters = %+v, want Misses 1, Coalesced %d, Hits 0", k, K-1)
	}
	for i, a := range answers {
		if !slices.Equal(a, want) {
			t.Fatalf("waiter %d answered %v, uncached answer is %v", i, a, want)
		}
	}
}
