// Package query is a lint fixture: its name puts it in detsource's scope
// (packages whose iteration order can leak into canonical output).
package query

import "sort"

// Process ranges over a map and emits in iteration order: flagged.
func Process(m map[string]int) []string {
	out := []string{}
	for k, v := range m { // want detsource
		if v > 0 {
			out = append(out, k)
		}
	}
	return out
}

// Sorted is the canonical fix: collect keys, sort, then iterate.
func Sorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Justified documents why order cannot matter.
func Justified(m map[string]int) int {
	total := 0
	//lint:ignore detsource summing ints is exact and order-insensitive
	for _, v := range m {
		total += v
	}
	return total
}

// SliceRange iterates a slice, which is ordered: not flagged.
func SliceRange(xs []int) int {
	n := 0
	for range xs {
		n++
	}
	return n
}
