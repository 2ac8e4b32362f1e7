// Package lib is a lint fixture for panicfree: ordinary library code
// (any non-main, non-test package) must not panic.
package lib

import "errors"

// Fail panics from library code: flagged.
func Fail() {
	panic("boom") // want panicfree
}

// MustIndex documents its precondition, exempting the panic.
// invariant: callers bound i by len(xs); the panic is unreachable.
func MustIndex(xs []int, i int) int {
	if i < 0 || i >= len(xs) {
		panic("index out of range")
	}
	return xs[i]
}

// Quiet returns an error instead of panicking: not flagged.
func Quiet(ok bool) error {
	if !ok {
		return errors.New("not ok")
	}
	return nil
}

// Suppressed uses the inline escape hatch.
func Suppressed() {
	//lint:ignore panicfree fixture for the suppression path
	panic("boom")
}

// DropOutsideInternal discards an error, but lib is not an internal
// package, so errdrop does not apply here.
func DropOutsideInternal() {
	Quiet(false)
}

// Sum ranges a map, but no canonical-output package imports lib, so
// detsource does not apply here.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		if v > 0 {
			total += v
		}
	}
	return total
}
