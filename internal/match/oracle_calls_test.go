package match

import (
	"math/rand"
	"testing"

	"wqe/internal/distindex"
	"wqe/internal/graph"
)

// countingIndex wraps a distance oracle and counts calls.
type countingIndex struct {
	inner   distindex.Index
	dists   int
	withins int
}

func (c *countingIndex) Dist(s, t graph.NodeID) int {
	c.dists++
	return c.inner.Dist(s, t)
}

func (c *countingIndex) Within(s, t graph.NodeID, bound int) bool {
	c.withins++
	return c.inner.Within(s, t, bound)
}

// TestMatchWithCountingOracle: the star tables are the matcher's only
// distance test. Over tree and cyclic random patterns — a cycle is what
// makes the search test an edge between two nodes it has both assigned —
// with and without a cache, Match never calls the oracle it was given.
func TestMatchWithCountingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cyclic := 0
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(12+rng.Intn(6), 24+rng.Intn(20), int64(trial))
		q := randomQuery(g, rng)
		if trial%2 == 1 {
			q = randomCyclicQuery(rng)
			if len(q.Edges) >= len(q.Nodes) {
				cyclic++
			}
		}
		for _, c := range []*Cache{nil, NewCache(64, 0.95)} {
			ci := &countingIndex{inner: distindex.NewBFS(g)}
			NewMatcher(g, ci, c).Match(q)
			if ci.dists != 0 || ci.withins != 0 {
				t.Fatalf("trial %d (cache=%v): Match made %d Dist and %d Within calls, want none\nQ: %s",
					trial, c != nil, ci.dists, ci.withins, q)
			}
		}
	}
	if cyclic < 50 {
		t.Fatalf("only %d of 100 patterns are cyclic", cyclic)
	}
}
