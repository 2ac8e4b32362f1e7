// Package det is a lint fixture for detsource: it is NOT a
// canonical-output package, but chase (see fixture/chase) imports it,
// so its nondeterminism sources are flagged with the import chain. A
// package no canonical package imports is left alone (see fixture/lib).
package det

import (
	"math/rand"
	"time"
)

// Hop1 merely forwards; the tainted range lives one hop further down.
func Hop1(m map[string]int) int { return Hop2(m) }

// Hop2 ranges a map in iteration order: flagged, with the import chain.
func Hop2(m map[string]int) int {
	total := 0
	for _, v := range m { // want detsource
		if v > 0 {
			total += v
		}
	}
	return total
}

// Orphan has the same tainted shape and no canonical code calls it,
// but its package is imported by one: scope is by import, so flagged.
func Orphan(m map[string]int) int {
	total := 0
	for _, v := range m { // want detsource
		if v > 0 {
			total += v
		}
	}
	return total
}

// Stamp reads the wall clock: flagged through the chain from chase.
func Stamp() int64 {
	return time.Now().UnixNano() // want detsource
}

// Jitter draws from the global math/rand source: flagged.
func Jitter() int {
	return rand.Intn(10) // want detsource
}

// Seeded uses an explicitly seeded private source, which is
// reproducible: not flagged.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Race lets the runtime pick among ready cases: flagged.
func Race(a, b chan int) int {
	select { // want detsource
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// TryRecv is the non-blocking receive: one comm case plus default.
// The spec's pseudo-random arbitration never applies (default cannot
// race a comm case), so this is deterministic: not flagged.
func TryRecv(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

// Justified documents why the randomness is acceptable here.
func Justified() int {
	//lint:ignore detsource fixture for the suppression path
	return rand.Intn(10)
}
