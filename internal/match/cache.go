package match

import "wqe/internal/anscache"

// Cache is the global star-view cache of §5.2: the module's one cache
// core (see package anscache for the stripes, singleflight, hit decay
// and least-hit eviction) holding materialized star tables under their
// structural star keys. The matcher fetches through GetOrCompute, so
// concurrent misses on one star key share a single materialization — a
// beam level fanning out over near-identical rewrites builds each star
// once instead of once per worker. A cached table is a pure function of
// its key, so cache organization only changes which tables get rebuilt,
// never what a table contains.
type Cache = anscache.Cache[*StarTable]

// NewCache returns a star-view cache holding at most capacity tables,
// striped over the core's default shard count. The decay factor
// (0 < decay ≤ 1) halves stale hit counts roughly every 1/(1−decay)
// uses; 0.95 is a good default.
func NewCache(capacity int, decay float64) *Cache {
	return anscache.NewDecay[*StarTable](capacity, 0, decay)
}
