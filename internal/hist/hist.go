// Package hist provides a lock-free log-linear latency histogram,
// shared by the serving layer's /stats endpoint and the closed-loop load
// generator so both report percentiles computed the same way. No
// external dependencies: buckets are a fixed array of atomic counters,
// each power of two of nanoseconds split into eight equal sub-buckets,
// so a reported percentile is within 12.5 % of the true one and Observe
// is a couple of atomic adds and a CAS, cheap enough to sit on a serving
// hot path.
package hist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits is log2 of the sub-buckets per power of two. With 8, a
// bucket's width is at most an eighth of its lower edge.
const subBits = 3

// nBuckets covers every possible duration. A duration below 2·2^subBits
// ns has a bucket of its own; above that, one with bit length n falls
// in bucket (n−subBits)·2^subBits + s, where s is the subBits bits below
// its leading one. A Duration is an int64, so n never exceeds 63, and
// the last bucket ends at the largest Duration.
const nBuckets = (63 - subBits + 1) << subBits

// Hist is a concurrent latency histogram. The zero value is ready to
// use. All methods are safe for concurrent callers; every field is
// accessed only through sync/atomic.
type Hist struct {
	buckets [nBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total observed nanoseconds
	max     atomic.Int64 // largest observed nanoseconds
}

// bucketFor maps a duration to its bucket index. Negative durations
// (clock weirdness) clamp to zero rather than corrupting the index.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	v := uint64(d)
	if v < 2<<subBits {
		return int(v)
	}
	n := bits.Len64(v)
	sub := int(v>>(n-1-subBits)) & (1<<subBits - 1)
	return (n-subBits)<<subBits + sub
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Snapshot copies the histogram's counters into an immutable view.
// Under concurrent Observe traffic the copy is per-bucket exact but not
// a single cross-bucket instant — fine for stats reporting.
func (h *Hist) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.count += s.buckets[i]
	}
	s.sum = h.sum.Load()
	s.max = time.Duration(h.max.Load())
	return s
}

// Snapshot is a point-in-time copy of a Hist, safe to read without
// synchronization.
type Snapshot struct {
	buckets [nBuckets]int64
	count   int64
	sum     int64
	max     time.Duration
}

// Count returns the number of observations in the snapshot.
func (s Snapshot) Count() int64 { return s.count }

// Max returns the largest observed duration.
func (s Snapshot) Max() time.Duration { return s.max }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s Snapshot) Mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return time.Duration(s.sum / s.count)
}

// Quantile returns an upper bound for the p-quantile (0 < p ≤ 1): the
// upper edge of the first bucket whose cumulative count reaches
// ⌈p·count⌉, clamped to the exact observed maximum. A bucket is at most
// an eighth as wide as its lower edge, so the bound is within 12.5 % of
// the true quantile, which is the resolution this histogram trades for
// lock-freedom; p50/p95/p99 read through this. An empty snapshot
// returns 0.
func (s Snapshot) Quantile(p float64) time.Duration {
	if s.count == 0 || p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	// ⌈p·count⌉ without importing math: the target rank is the smallest
	// integer ≥ p·count, at least 1.
	target := int64(p * float64(s.count))
	if float64(target) < p*float64(s.count) {
		target++
	}
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i, c := range s.buckets {
		cum += c
		if cum >= target {
			upper := bucketUpper(i)
			if upper > s.max {
				return s.max
			}
			return upper
		}
	}
	return s.max
}

// bucketUpper returns the largest duration bucket i can hold.
func bucketUpper(i int) time.Duration {
	if i < 2<<subBits {
		return time.Duration(i)
	}
	n := i>>subBits + subBits // the bit length of the bucket's durations
	shift := n - 1 - subBits
	lower := uint64(1<<subBits|i&(1<<subBits-1)) << shift
	return time.Duration(lower + 1<<shift - 1)
}
