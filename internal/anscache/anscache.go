// Package anscache is the module's one cache core: a bounded,
// lock-striped map with singleflight coalescing, decayed hit counts and
// least-hit eviction (§5.2's "hit count with time decay, least-hit
// replacement"). It is instantiated twice: as the star-view cache
// (match.Cache = Cache[*match.StarTable], keyed by structural star key,
// shared by every question of a session) and as the serving-path answer
// memo (a Cache of chase's memo entries, keyed by a canonical question
// digest, so N concurrent identical requests run exactly one chase and
// finished answers, with the response bodies rendered from them, stay
// resident for later identical requests).
//
// Keys hash (FNV-1a) onto a power-of-two number of shards; each shard
// owns its own mutex, logical tick clock, entry map, and in-flight
// singleflight table, so two callers contend only when their keys land
// on the same stripe. Every use bumps a hit counter that decays with
// the shard's clock, and a full shard evicts its least-hit entry with
// ties broken on the smallest key, popped off a min-heap the shard keeps
// in exactly that order. Eviction is therefore deterministic per shard,
// and the shard a key lives on is a pure function of the key, so
// identical request streams leave identical cache contents. A
// cached value is a pure function of its key, so cache organization can
// only change what gets recomputed — never what a value contains — and
// rewrite ranking never reads cache statistics. A panicking compute
// never wedges its waiters: the failed flight wakes them and the first
// retrier becomes the new owner, so waiters only ever inherit a panic
// from their own compute attempt.
//
// Statistics live in atomic counters (hits, misses, coalesced waits,
// evictions, size) so snapshots never take a shard lock.
package anscache

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxDecayAge caps the exponent of the closed-form hit decay. At the
// default decay 0.95, 0.95^600 ≈ 4e-14 — far below one hit — so any
// larger age flushes the hit count outright and math.Pow never sees
// extreme exponents.
const maxDecayAge = 1 << 12

// defaultDecay is the per-tick hit decay factor New uses: stale hit
// counts halve roughly every 1/(1−decay) shard accesses.
const defaultDecay = 0.95

// Outcome classifies one GetOrCompute call.
type Outcome uint8

// GetOrCompute outcomes.
const (
	// Hit: the value was resident; no compute ran.
	Hit Outcome = iota
	// Miss: this caller ran the compute (and possibly stored the value).
	Miss
	// Coalesced: an identical request was already in flight; this caller
	// waited on it and shares its value — no second compute ran.
	Coalesced
)

// Cache is a sharded cache holding values of type V. V should be
// treated as immutable once stored: every hit and every coalesced
// waiter receives the same value.
type Cache[V any] struct {
	// shards has power-of-two length; mask == len(shards)-1.
	shards []shard[V]
	mask   uint32

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
	size      atomic.Int64
}

// shard is one stripe: an independent decaying map with its own lock,
// logical clock, victims heap and singleflight table.
type shard[V any] struct {
	// cap and decay are immutable after construction.
	cap   int
	decay float64

	// mu guards every mutable field below.
	mu       sync.Mutex
	tick     int64                 // guarded by mu
	entries  map[string]*entry[V]  // guarded by mu
	victims  victims[V]            // guarded by mu; the entries, next victim first
	inflight map[string]*flight[V] // guarded by mu
}

type entry[V any] struct {
	val      V
	key      string
	hits     float64
	lastTick int64
	pos      int // index in the shard's victims heap
}

// victims is a binary min-heap (container/heap) of a shard's entries in
// eviction order: fewest stored hits first, ties to the smaller key. The
// order reads only fields the shard changes under its lock, and every
// change is followed by heap.Fix at the entry's pos, so victims[0] is
// always the entry a scan of the whole shard would pick.
type victims[V any] []*entry[V]

func (h victims[V]) Len() int { return len(h) }

func (h victims[V]) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.hits < b.hits || a.hits == b.hits && a.key < b.key
}

func (h victims[V]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *victims[V]) Push(x any) {
	e := x.(*entry[V])
	e.pos = len(*h)
	*h = append(*h, e)
}

func (h *victims[V]) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil // the heap's spare capacity must not pin an evicted value
	*h = old[:n-1]
	return e
}

// flight is one in-progress compute other callers can wait on. val and
// failed are written exactly once, before done is closed; waiters read
// them only after <-done, so the handoff is race-free without a lock.
// failed marks a compute that panicked: its waiters must not trust val
// and instead retry with a fresh flight.
type flight[V any] struct {
	done   chan struct{}
	val    V
	failed bool
}

// defaultShards is the shard count used when none is requested:
// nextPow2(4×GOMAXPROCS). Four stripes per logical CPU keeps the
// probability of two concurrently active workers hashing onto the same
// stripe low without inflating per-shard bookkeeping.
func defaultShards() int {
	return nextPow2(4 * runtime.GOMAXPROCS(0))
}

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New returns a cache holding at most capacity values, striped over
// shards stripes (≤ 0 means nextPow2(4×GOMAXPROCS); other values round
// up to a power of two, and 1 gives an un-striped cache). Capacity
// splits as capacity/N per shard with the remainder to the low shards,
// floor one entry per shard, so the effective total capacity is
// max(capacity, N).
func New[V any](capacity, shards int) *Cache[V] {
	return NewDecay[V](capacity, shards, defaultDecay)
}

// NewDecay is New with the cache's hit decay factor (0 < decay ≤ 1,
// anything else means the default 0.95) fixed at construction.
func NewDecay[V any](capacity, shards int, decay float64) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if decay <= 0 || decay > 1 {
		decay = defaultDecay
	}
	if shards <= 0 {
		shards = defaultShards()
	}
	shards = nextPow2(shards)
	c := &Cache[V]{
		shards: make([]shard[V], shards),
		mask:   uint32(shards - 1),
	}
	base, rem := capacity/shards, capacity%shards
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		if sc < 1 {
			sc = 1
		}
		c.shards[i] = shard[V]{
			cap:      sc,
			decay:    decay,
			entries:  map[string]*entry[V]{},
			inflight: map[string]*flight[V]{},
		}
	}
	return c
}

// Shards returns the cache's shard count (a power of two).
func (c *Cache[V]) Shards() int { return len(c.shards) }

// Len returns the number of resident values, from the atomic size
// counter — it never takes a shard lock.
func (c *Cache[V]) Len() int { return int(c.size.Load()) }

// shardFor maps a key onto its owning shard with inlined 32-bit FNV-1a
// (the hash/fnv wrapper would allocate a hasher per lookup).
func (c *Cache[V]) shardFor(key string) *shard[V] {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return &c.shards[h&c.mask]
}

// Get returns the resident value for key, bumping its decayed hit
// count, or V's zero value when the key is absent (instantiate V as a
// pointer where absence must be told apart). It never waits on an
// in-flight compute.
func (c *Cache[V]) Get(key string) (v V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	e, ok := s.entries[key]
	if !ok {
		c.misses.Add(1)
		return v
	}
	c.hits.Add(1)
	s.bumpLocked(e)
	return e.val
}

// Put stores v under key (refreshing a resident entry), evicting the
// owning shard's least-hit entry when that shard is full.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	s.putLocked(c, key, v)
}

// lookupState is the locked phase's verdict.
type lookupState uint8

const (
	lookupHit lookupState = iota
	lookupWait
	lookupOwner
)

// GetOrCompute returns the value for key, running compute on a miss.
// Concurrent callers missing on the same key share one compute: the
// first caller runs it (outside any cache lock), the rest block until
// it finishes and return the same value with Outcome Coalesced.
// compute's second return value says whether the result should be
// stored (false keeps it a pure pass-through — e.g. an errored answer
// is still delivered to every coalesced waiter but never memoized).
//
// A panicking compute does not poison the key: the failed flight wakes
// its waiters, which race for a fresh flight (the first retrier becomes
// the new owner), while the panic continues to the compute's own
// caller. Exactly one of the three outcomes is counted per call.
func (c *Cache[V]) GetOrCompute(key string, compute func() (V, bool)) (V, Outcome) {
	s := c.shardFor(key)
	for {
		v, f, state := s.lookup(key)
		switch state {
		case lookupHit:
			c.hits.Add(1)
			return v, Hit
		case lookupOwner:
			c.misses.Add(1)
			return s.runFlight(c, key, f, compute), Miss
		default:
			<-f.done
			if !f.failed {
				c.coalesced.Add(1)
				return f.val, Coalesced
			}
			// The owner panicked; race for a fresh flight.
		}
	}
}

// lookup is GetOrCompute's locked phase: a hit returns the value; a
// miss returns the flight to wait on, or a freshly registered flight
// when this caller must run the compute.
func (s *shard[V]) lookup(key string) (v V, f *flight[V], state lookupState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if e, ok := s.entries[key]; ok {
		s.bumpLocked(e)
		return e.val, nil, lookupHit
	}
	if in, ok := s.inflight[key]; ok {
		return v, in, lookupWait
	}
	f = &flight[V]{done: make(chan struct{})}
	s.inflight[key] = f
	return v, f, lookupOwner
}

// runFlight executes one singleflight compute (outside the shard lock)
// and publishes its outcome: on success the flight resolves to the
// value and, if compute said to store it, the entry is inserted; on
// panic the deferred handler marks the flight failed, closes it, and
// deletes the in-flight entry, waking every waiter, before the panic
// continues to the caller.
func (s *shard[V]) runFlight(c *Cache[V], key string, f *flight[V], compute func() (V, bool)) V {
	committed := false
	defer func() {
		if committed {
			return
		}
		f.failed = true
		close(f.done)
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
	}()

	v, store := compute()

	f.val = v
	close(f.done)
	s.mu.Lock()
	delete(s.inflight, key)
	s.tick++
	if store {
		s.putLocked(c, key, v)
	}
	s.mu.Unlock()
	committed = true
	return v
}

// bumpLocked applies the time decay then counts one hit. The decay is
// the closed form decay^age over the shard's own tick clock — a
// per-tick loop would spin for the whole age under the lock, which
// after a long miss streak (ticks advance on every shard access, hits
// or not) meant millions of iterations for a single bump. The caller
// must hold s.mu.
func (s *shard[V]) bumpLocked(e *entry[V]) {
	if age := s.tick - e.lastTick; age > maxDecayAge {
		e.hits = 0 // decay^age underflows any meaningful hit mass
	} else if age > 0 {
		e.hits *= math.Pow(s.decay, float64(age))
	}
	e.hits++
	e.lastTick = s.tick
	heap.Fix(&s.victims, e.pos)
}

// putLocked inserts or refreshes an entry, evicting the shard's
// least-hit entry when the shard is full. The caller must hold s.mu.
func (s *shard[V]) putLocked(c *Cache[V], key string, v V) {
	if e, ok := s.entries[key]; ok {
		e.val = v
		s.bumpLocked(e)
		return
	}
	if len(s.entries) >= s.cap {
		s.evictWorstLocked(c)
	}
	e := &entry[V]{val: v, key: key, hits: 1, lastTick: s.tick}
	s.entries[key] = e
	heap.Push(&s.victims, e)
	c.size.Add(1)
}

// evictWorstLocked evicts the least-hit entry, the root of the victims
// heap, in O(log n). Equal hit counts tie-break on the smallest key:
// without the tie-break a full shard of equal-hit entries would evict
// whichever one some order put first, and cache contents — and
// downstream hit/miss stats — would then depend on more than the
// request stream. The caller must hold s.mu.
func (s *shard[V]) evictWorstLocked(c *Cache[V]) {
	e := heap.Pop(&s.victims).(*entry[V])
	delete(s.entries, e.key)
	c.size.Add(-1)
	c.evictions.Add(1)
}

// Counters is the cache's full atomic counter set, snapshot lock-free.
// Hits+Misses+Coalesced equals the number of completed Get and
// GetOrCompute calls (a panicking compute counts its Miss but delivers
// no value); a lookup that found no resident value is a Miss or a
// Coalesced wait. Size is the current resident entry count; the rest
// are cumulative. The counters are observability only — rewrite ranking
// never reads them — so exposing them (e.g. through a server's /stats
// endpoint) cannot perturb byte-identical output.
type Counters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Size      int64 `json:"size"`
}

// Counters snapshots every counter without taking a shard lock. The
// fields are loaded individually, so a snapshot taken under concurrent
// traffic is per-counter exact but not a cross-counter instant.
func (c *Cache[V]) Counters() Counters {
	return Counters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.size.Load(),
	}
}
