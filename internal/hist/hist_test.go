package hist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wqe/internal/par"
)

func TestEmptySnapshot(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.Count() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot: count=%d max=%v mean=%v", s.Count(), s.Max(), s.Mean())
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 3}, {7, 7}, {8, 8}, {15, 15},
		{16, 16}, {17, 16}, {18, 17}, {31, 23}, {32, 24},
		{1023, 63}, {1024, 64}, {1<<63 - 1, nBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketFor(tc.d); got != tc.want {
			t.Errorf("bucketFor(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestQuantileBounds pins the quantile contract: the reported value is
// an upper bound within one power-of-two bucket of the true quantile,
// and never exceeds the observed max.
func TestQuantileBounds(t *testing.T) {
	var h Hist
	// 100 observations: 1ms ×90, 10ms ×9, 100ms ×1.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)

	s := h.Snapshot()
	if s.Count() != 100 {
		t.Fatalf("count = %d, want 100", s.Count())
	}
	if s.Max() != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", s.Max())
	}
	// p50 lands in the 1ms bucket: upper bound < 2ms.
	if q := s.Quantile(0.50); q < time.Millisecond || q >= 2*time.Millisecond {
		t.Errorf("p50 = %v, want in [1ms, 2ms)", q)
	}
	// p95 lands in the 10ms bucket: upper bound < 20ms.
	if q := s.Quantile(0.95); q < 10*time.Millisecond || q >= 20*time.Millisecond {
		t.Errorf("p95 = %v, want in [10ms, 20ms)", q)
	}
	// p100 is clamped to the exact max.
	if q := s.Quantile(1); q != 100*time.Millisecond {
		t.Errorf("p100 = %v, want exactly 100ms", q)
	}
}

// TestQuantileClampedToMax: when the quantile bucket's upper edge
// exceeds the true max, the max wins — p99 of a uniform set can never
// exceed the largest observation.
func TestQuantileClampedToMax(t *testing.T) {
	var h Hist
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket [512, 1024); upper edge 1023
	}
	if q := h.Snapshot().Quantile(0.99); q != 1000 {
		t.Fatalf("p99 = %v, want clamped to max 1000ns", q)
	}
}

func TestMean(t *testing.T) {
	var h Hist
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	if m := h.Snapshot().Mean(); m != 3*time.Millisecond {
		t.Fatalf("mean = %v, want 3ms", m)
	}
}

// TestConcurrentObserve hammers one histogram from many goroutines;
// run under -race this pins the lock-free contract, and the final
// count/sum must be exact regardless of interleaving.
func TestConcurrentObserve(t *testing.T) {
	var h Hist
	const workers, per = 8, 1000
	par.ForEach(workers, workers, func(w int) {
		for i := 0; i < per; i++ {
			h.Observe(time.Duration(w*1000 + i))
		}
	})
	s := h.Snapshot()
	if s.Count() != workers*per {
		t.Fatalf("count = %d, want %d", s.Count(), workers*per)
	}
	if s.Max() != time.Duration(7*1000+999) {
		t.Fatalf("max = %v, want %v", s.Max(), time.Duration(7999))
	}
}

// TestBucketEdges: the buckets tile the durations with no gap or
// overlap — each bucket's upper edge maps to it and the next nanosecond
// to the next bucket — and no bucket is wider than an eighth of its
// lower edge once past the exact ones.
func TestBucketEdges(t *testing.T) {
	lower := time.Duration(0)
	for i := 0; i < nBuckets; i++ {
		upper := bucketUpper(i)
		if got := bucketFor(upper); got != i {
			t.Fatalf("bucketFor(bucketUpper(%d) = %d) = %d", i, upper, got)
		}
		if got := bucketFor(lower); got != i {
			t.Fatalf("bucket %d's lower edge %d maps to bucket %d", i, lower, got)
		}
		if width := upper - lower + 1; width > 1 && 8*width > lower {
			t.Fatalf("bucket %d = [%d, %d] is wider than an eighth of its lower edge", i, lower, upper)
		}
		if i == nBuckets-1 {
			if upper != 1<<63-1 {
				t.Fatalf("last bucket ends at %d, want MaxInt64", upper)
			}
			break
		}
		lower = upper + 1
	}
}

// TestQuantileRelativeError: on known distributions — a uniform spread,
// a log-uniform one over six decades, and the narrow 2–4 ms band that
// power-of-two buckets reported as p50 = p95 = 4.194303 ms — p50, p95
// and p99 come within 12.5 % above the exact order statistic, never
// below it.
func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		draw func() time.Duration
	}{
		{"uniform 0-100ms", func() time.Duration { return time.Duration(rng.Int63n(int64(100 * time.Millisecond))) }},
		{"log-uniform 1us-1s", func() time.Duration {
			return time.Duration(float64(time.Microsecond) * math.Pow(10, 6*rng.Float64()))
		}},
		{"2-4ms", func() time.Duration { return 2*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Millisecond))) }},
	} {
		var h Hist
		samples := make([]time.Duration, 20000)
		for i := range samples {
			samples[i] = tc.draw()
			h.Observe(samples[i])
		}
		slices.Sort(samples)
		s := h.Snapshot()
		got := map[float64]time.Duration{}
		for _, p := range []float64{0.50, 0.95, 0.99} {
			exact := samples[int(p*float64(len(samples)))-1] // rank ⌈p·n⌉, 1-based
			q := s.Quantile(p)
			got[p] = q
			if q < exact || float64(q) > 1.125*float64(exact) {
				t.Errorf("%s: p%v = %v, exact %v: outside [exact, exact × 1.125]", tc.name, p*100, q, exact)
			}
		}
		if got[0.50] == got[0.95] {
			t.Errorf("%s: p50 = p95 = %v", tc.name, got[0.50])
		}
	}
}
