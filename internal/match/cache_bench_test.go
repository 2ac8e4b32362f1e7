package match

import "testing"

// benchCache builds a warm cache with the given shard count: every key
// of the working set is present, so the benchmark exercises the pure
// hit path of GetOrCompute — the path every beam level hammers once the
// star views stabilize.
func benchCache(shards, keys int) (*Cache, []string) {
	c := newCacheSharded(4*keys, 0.95, shards)
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = starKey(i)
		c.Put(ks[i], &StarTable{})
	}
	return c, ks
}

// benchGetOrBuildHit measures contended GetOrCompute hits: every
// goroutine of RunParallel walks the warm working set. On a 1-shard
// cache all of them serialize on one mutex; sharding spreads them over
// the stripes. ReportAllocs pins the hit path at zero allocations.
func benchGetOrBuildHit(b *testing.B, shards int) {
	c, ks := benchCache(shards, 64)
	// The working set is warm and the capacity generous, so build must
	// never run; b.Fail (goroutine-safe) flags it if it somehow does.
	build := func() (*StarTable, bool) { b.Fail(); return &StarTable{}, true }
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if t, _ := c.GetOrCompute(ks[i&63], build); t == nil {
				b.Fail()
			}
			i++
		}
	})
}

func BenchmarkCacheGetOrBuildHit1Shard(b *testing.B)  { benchGetOrBuildHit(b, 1) }
func BenchmarkCacheGetOrBuildHitSharded(b *testing.B) { benchGetOrBuildHit(b, 0) }
