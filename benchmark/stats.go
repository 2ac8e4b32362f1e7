package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.80}

// minBeyond is how many samples must lie beyond a percentile before it
// is trusted: with fewer, the "percentile" is one or two outliers.
const minBeyond = 10

// percentile returns the exact nearest-rank p-quantile (0 < p ≤ 1) of
// an ascending slice: the smallest sample with at least p·n samples at
// or below it. Raw samples are used instead of internal/hist because
// its power-of-two buckets cannot resolve anything finer than 2x
// (BENCH_serve.json reports p50 = p95 = 4.194303 ms).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly after the p-quantile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile picks the percentile a workload's latency tail is
// reported at: its nominal percentile when at least minBeyond samples
// lie beyond it, otherwise the highest lower candidate that has them.
// With too few samples for any candidate it settles for the lowest.
func tailPercentile(n int, nominal float64) float64 {
	for _, p := range tailCandidates {
		if p <= nominal && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return tailCandidates[len(tailCandidates)-1]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the exact median of v (mean of the middle pair for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of v, 0 for no samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// jaccard is |a ∩ b| / |a ∪ b| over two ascending id lists — the
// answer-vs-ground-truth closeness surrogate of the paper's Exp-2. Two
// empty sets agree completely.
func jaccard(a, b []int64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}
