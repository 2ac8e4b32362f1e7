// Package chase is a lint fixture: its name makes it a root for
// detsource — nondeterminism sources in it and in any package it imports
// (see fixture/det) are flagged.
package chase

import (
	"time"

	"fixture/det"
)

// Pipeline hands ranking work to a helper package; detsource flags the
// map range there because chase imports det.
func Pipeline(m map[string]int) int { return det.Hop1(m) }

// Uses calls each taint source in det; the findings land there.
func Uses(a, b chan int) int64 {
	det.Jitter()
	det.Seeded(7)
	det.Race(a, b)
	det.Justified()
	return det.Stamp()
}

// Clock reads the wall clock directly in a canonical-output package:
// flagged in place.
func Clock() int64 {
	return time.Now().UnixNano() // want detsource
}
