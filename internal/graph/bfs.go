package graph

import "sync"

// Unreachable is returned by distance queries when no path exists within
// the requested bound.
const Unreachable = int(^uint(0) >> 1) // max int

// Direction selects which adjacency a traversal follows.
type Direction uint8

const (
	// Forward follows out-edges (paths leaving the start node).
	Forward Direction = iota
	// Backward follows in-edges (paths arriving at the start node).
	Backward
	// Both ignores direction (undirected neighborhood exploration).
	Both
)

// NodeDist pairs a node with its BFS distance from a traversal origin.
type NodeDist struct {
	V NodeID
	D int32
}

// bfsScratch is an epoch-stamped visited array reused across BFS runs;
// clearing is O(1) per run (bump the stamp) instead of O(|V|). queue is
// VisitBall's frontier and balls a Traverser's storage, one per
// direction, kept here so that neither allocates once the scratch has
// grown to the balls it serves.
type bfsScratch struct {
	seen  []uint32
	stamp uint32
	queue []NodeID
	balls [3][]NodeDist
}

var scratchPool = sync.Pool{New: func() interface{} { return &bfsScratch{} }}

func (g *Graph) scratch() *bfsScratch {
	sc := scratchPool.Get().(*bfsScratch)
	if len(sc.seen) < g.NumNodes() {
		sc.seen = make([]uint32, g.NumNodes())
		sc.stamp = 0
	}
	sc.next()
	return sc
}

// next starts a traversal: nothing is seen under the new stamp.
func (sc *bfsScratch) next() {
	sc.stamp++
	if sc.stamp == 0 { // wrapped: hard reset
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.stamp = 1
	}
}

// Ball returns every node within maxHops of v along the chosen
// direction with its BFS distance; the first entry is (v, 0) and
// entries appear in BFS order. The returned slice is freshly allocated
// and owned by the caller; a caller that scans one ball after another
// and keeps none holds a Traverser instead.
func (g *Graph) Ball(v NodeID, maxHops int, dir Direction) []NodeDist {
	sc := g.scratch()
	out := g.ball(sc, make([]NodeDist, 0, 16), v, maxHops, dir)
	scratchPool.Put(sc)
	return out
}

// ball is the loop Ball and Traverser.Ball share: it appends the ball of
// v to out, which is empty, marking nodes under sc's current stamp. It is
// a plain function because a callback per node costs the traversal a
// quarter of its speed (see VisitBall).
func (g *Graph) ball(sc *bfsScratch, out []NodeDist, v NodeID, maxHops int, dir Direction) []NodeDist {
	// No shortest path is longer than |V|, and a bound past math.MaxInt32
	// (a star's bound sums edge bounds) would wrap the int32 loop negative.
	// VisitBall and VisitBalls clamp the same way.
	maxHops = min(maxHops, g.NumNodes())
	out = append(out, NodeDist{V: v, D: 0})
	sc.seen[v] = sc.stamp
	start := 0
	for d := int32(1); d <= int32(maxHops); d++ {
		end := len(out)
		if start == end {
			break
		}
		for i := start; i < end; i++ {
			u := out[i].V
			if dir == Forward || dir == Both {
				for _, e := range g.outEdges[g.outOff[u]:g.outOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						out = append(out, NodeDist{V: e.To, D: d})
					}
				}
			}
			if dir == Backward || dir == Both {
				for _, e := range g.inEdges[g.inOff[u]:g.inOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						out = append(out, NodeDist{V: e.To, D: d})
					}
				}
			}
		}
		start = end
	}
	return out
}

// Traverser computes balls one after another on a scratch it draws once,
// for callers that scan each ball and drop it: star-table construction
// visits a hundred center candidates whose balls hold a handful of nodes
// each, so the fixed price of a Ball — a pool round trip and a fresh
// slice — outweighs the traversal. A Traverser is for one goroutine and
// must be released.
type Traverser struct {
	g  *Graph
	sc *bfsScratch
}

// Traverser draws the scratch for a run of traversals over g.
func (g *Graph) Traverser() Traverser {
	return Traverser{g: g, sc: g.scratch()}
}

// Ball is Graph.Ball into storage the traverser owns: the result is
// valid until the next call with the same direction, or Release.
func (t Traverser) Ball(v NodeID, maxHops int, dir Direction) []NodeDist {
	t.sc.next()
	out := t.g.ball(t.sc, t.sc.balls[dir][:0], v, maxHops, dir)
	t.sc.balls[dir] = out // keep whatever the ball grew to
	return out
}

// Release returns the scratch; the traverser and its balls are dead.
func (t Traverser) Release() { scratchPool.Put(t.sc) }

// VisitBall calls visit(u, d) for the nodes Ball(v, maxHops, dir) would
// return, in the same order, and stops as soon as visit returns false.
// The nodes visited before a stop are therefore a prefix of the ball,
// and a caller that needs only the first k nodes with some property
// pays for the levels up to the k-th, not for the whole radius. visit
// may itself traverse g (each traversal draws its own scratch).
//
// The loop duplicates ball's rather than sharing it: routing Ball
// through a callback costs it a quarter of its speed, and star-table
// construction lives on it. TestVisitBallMatchesBall pins the two
// together on every prefix.
func (g *Graph) VisitBall(v NodeID, maxHops int, dir Direction, visit func(u NodeID, d int32) bool) {
	maxHops = min(maxHops, g.NumNodes())
	sc := g.scratch()
	queue := sc.queue[:0]
	defer func() {
		sc.queue = queue // keep whatever the frontier grew to
		scratchPool.Put(sc)
	}()
	if !visit(v, 0) {
		return
	}
	queue = append(queue, v)
	sc.seen[v] = sc.stamp
	start := 0
	for d := int32(1); d <= int32(maxHops); d++ {
		end := len(queue)
		if start == end {
			break
		}
		for i := start; i < end; i++ {
			u := queue[i]
			if dir == Forward || dir == Both {
				for _, e := range g.outEdges[g.outOff[u]:g.outOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						queue = append(queue, e.To)
						if !visit(e.To, d) {
							return
						}
					}
				}
			}
			if dir == Backward || dir == Both {
				for _, e := range g.inEdges[g.inOff[u]:g.inOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						queue = append(queue, e.To)
						if !visit(e.To, d) {
							return
						}
					}
				}
			}
		}
		start = end
	}
}

// MaxBallSources is how many traversals one VisitBalls sweep carries:
// one bit of a uint64 per source.
const MaxBallSources = 64

// ballsScratch is VisitBalls' working state. seen and next are indexed
// by node and hold source sets: seen[n] the sources that reached n at a
// settled level, next[n] those arriving at the level being built. Both
// are all-zero between calls and cleared through the touched and
// arriving lists, so a sweep costs what it reaches, never O(|V|).
//
// Memory: 16 B per node (two uint64), allocated on first use and pooled
// — 16 MB per concurrently sweeping goroutine on a 1M-node graph — plus
// 16 B per node actually reached for the lists below.
type ballsScratch struct {
	seen, next []uint64
	touched    []NodeID // nodes with seen != 0
	arriving   []NodeID // nodes with next != 0
	front      []NodeID // the settled level, with the sources that
	masks      []uint64 // reached each of its nodes at exactly that level
}

var ballsPool = sync.Pool{New: func() interface{} { return &ballsScratch{} }}

// arrive records that the sources in m, having settled at a node whose
// adjacency is edges, reach each neighbour they have not settled at.
func (sc *ballsScratch) arrive(edges []Edge, m uint64) {
	for _, e := range edges {
		if nw := m &^ sc.seen[e.To]; nw != 0 {
			if sc.next[e.To] == 0 {
				sc.arriving = append(sc.arriving, e.To)
			}
			sc.next[e.To] |= nw
		}
	}
}

// VisitBalls runs the bounded traversals Ball(srcs[i], maxHops, dir) for
// the first min(MaxBallSources, len(srcs)) sources in one
// level-synchronous sweep and returns how many sources it took, so a
// caller with more loops `for len(s) > 0 { s = s[g.VisitBalls(s, …):] }`.
// Every node carries the set of sources that reached it as the bits of
// a uint64 (bit i for srcs[i]), so sources with overlapping balls scan
// each edge once per level rather than once per source.
//
// visit(n, d, mask) is called level by level, once per node and level,
// with the sources at distance exactly d from n: bit i is reported for
// (n, d) exactly when Ball(srcs[i], maxHops, dir) contains (n, d), a
// source sees itself at d = 0, and the masks one node receives at
// different levels are disjoint. The order of nodes within a level is
// deterministic but not Ball's. The bits visit returns are retired: they
// stop expanding, so those sources report nothing beyond the level they
// were retired in (the rest of that level still carries them). visit
// may itself traverse g.
//
// The scratch is pooled and cleared by what the sweep touched: a call
// costs O(nodes reached + edges scanned) and allocates nothing once
// warm. See ballsScratch for its size.
func (g *Graph) VisitBalls(srcs []NodeID, maxHops int, dir Direction, visit func(n NodeID, d int32, mask uint64) (retire uint64)) (taken int) {
	maxHops = min(maxHops, g.NumNodes())
	taken = min(len(srcs), MaxBallSources)
	sc := ballsPool.Get().(*ballsScratch)
	if len(sc.seen) < g.NumNodes() {
		sc.seen = make([]uint64, g.NumNodes())
		sc.next = make([]uint64, g.NumNodes())
	}
	for i, s := range srcs[:taken] {
		if sc.next[s] == 0 {
			sc.arriving = append(sc.arriving, s)
		}
		sc.next[s] |= 1 << i
	}
	var retired uint64
	for d := int32(0); len(sc.arriving) > 0; d++ {
		// Settle level d: the arrivals become the frontier.
		sc.front, sc.masks = sc.front[:0], sc.masks[:0]
		for _, n := range sc.arriving {
			m := sc.next[n]
			sc.next[n] = 0
			if sc.seen[n] == 0 {
				sc.touched = append(sc.touched, n)
			}
			sc.seen[n] |= m
			sc.front = append(sc.front, n)
			sc.masks = append(sc.masks, m)
			retired |= visit(n, d, m)
		}
		sc.arriving = sc.arriving[:0]
		if d >= int32(maxHops) {
			break
		}
		for i, u := range sc.front {
			m := sc.masks[i] &^ retired
			if m == 0 {
				continue
			}
			if dir == Forward || dir == Both {
				sc.arrive(g.outEdges[g.outOff[u]:g.outOff[u+1]], m)
			}
			if dir == Backward || dir == Both {
				sc.arrive(g.inEdges[g.inOff[u]:g.inOff[u+1]], m)
			}
		}
	}
	for _, n := range sc.touched {
		sc.seen[n] = 0
	}
	sc.touched = sc.touched[:0]
	ballsPool.Put(sc)
	return taken
}

// Dist returns the length of the shortest directed path from → to,
// searching at most maxHops hops. It returns Unreachable when no such
// path exists. Dist(v, v, _) is 0.
func (g *Graph) Dist(from, to NodeID, maxHops int) int {
	if from == to {
		return 0
	}
	if maxHops <= 0 {
		return Unreachable
	}
	sc := g.scratch()
	defer scratchPool.Put(sc)
	queue := make([]NodeID, 0, 16)
	queue = append(queue, from)
	sc.seen[from] = sc.stamp
	start := 0
	for d := 1; d <= maxHops; d++ {
		end := len(queue)
		if start == end {
			return Unreachable
		}
		for i := start; i < end; i++ {
			for _, e := range g.outEdges[g.outOff[queue[i]]:g.outOff[queue[i]+1]] {
				if sc.seen[e.To] == sc.stamp {
					continue
				}
				if e.To == to {
					return d
				}
				sc.seen[e.To] = sc.stamp
				queue = append(queue, e.To)
			}
		}
		start = end
	}
	return Unreachable
}

// eccentricity runs a full undirected BFS from v and returns the largest
// finite distance reached along with the last node reached at it: the
// last entry of Ball(v, |V|, Both). It keeps only the pooled queue, not
// the ball, so a sweep of a million nodes leaves no garbage behind.
func (g *Graph) eccentricity(v NodeID) (int, NodeID) {
	sc := g.scratch()
	q := append(sc.queue[:0], v)
	sc.seen[v] = sc.stamp
	depth := 0
	for start := 0; ; depth++ {
		end := len(q)
		for _, u := range q[start:end] {
			for _, e := range g.outEdges[g.outOff[u]:g.outOff[u+1]] {
				if sc.seen[e.To] != sc.stamp {
					sc.seen[e.To] = sc.stamp
					q = append(q, e.To)
				}
			}
			for _, e := range g.inEdges[g.inOff[u]:g.inOff[u+1]] {
				if sc.seen[e.To] != sc.stamp {
					sc.seen[e.To] = sc.stamp
					q = append(q, e.To)
				}
			}
		}
		if len(q) == end {
			break
		}
		start = end
	}
	last := q[len(q)-1]
	sc.queue = q
	scratchPool.Put(sc)
	return depth, last
}

// Diameter returns an estimate of D(G), the diameter of the graph viewed
// undirected, computed once by the double-sweep heuristic (exact on
// trees, a lower bound in general; the paper uses D(G) only to normalize
// edge-bound operator costs). It is at least 1, so cost normalization
// never divides by zero.
func (g *Graph) Diameter() int {
	g.diamOnce.Do(func() {
		g.diam = 1
		if n := g.NumNodes(); n > 0 {
			// Double sweep: BFS from a few arbitrary seeds, then from the
			// farthest node each finds; the second sweep's eccentricity is
			// the classic double-sweep lower bound (exact on trees).
			for _, s := range []NodeID{0, NodeID(n / 2), NodeID(n - 1)} {
				e1, far := g.eccentricity(s)
				e2, _ := g.eccentricity(far)
				g.diam = max(g.diam, e1, e2)
			}
		}
	})
	return g.diam
}
