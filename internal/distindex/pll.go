package distindex

import (
	"sort"

	"wqe/internal/graph"
	"wqe/internal/par"
)

// labelEntry is one 2-hop-cover label: landmark rank and distance.
type labelEntry struct {
	rank int32
	d    int32
}

// labelCand is one candidate label produced by a pruned BFS: the node
// to label and its distance from (or to) the landmark.
type labelCand struct {
	v graph.NodeID
	d int32
}

// PLL is a Pruned Landmark Labeling index (Akiba, Iwata, Yoshida,
// SIGMOD 2013) for directed graphs. Every node v stores two label sets:
// in-labels {(u, dist(u→v))} and out-labels {(u, dist(v→u))} over a set
// of landmarks processed in descending-degree order with pruned BFS.
// dist(s→t) is then the minimum of dOut + dIn over landmarks common to
// out(s) and in(t).
//
// Each side is stored the way the graph stores adjacency: one arena of
// entries and an offset per node, which is also the layout of the
// marshaled blob (snapshot.go).
type PLL struct {
	rank    []int32 // node → landmark rank (0 = highest degree)
	in, out labelSide
}

// labelSide is one side of the index in CSR form: the labels of node v
// are arena[off[v]:off[v+1]], strictly ascending by rank. Offsets are
// int32, as in the blob.
type labelSide struct {
	off   []int32
	arena []labelEntry
}

// of returns the labels of v.
func (s *labelSide) of(v graph.NodeID) []labelEntry { return s.arena[s.off[v]:s.off[v+1]] }

// flatten lays per-node label lists out as one side.
func flatten(lists [][]labelEntry) labelSide {
	total := 0
	for _, ls := range lists {
		total += len(ls)
	}
	s := labelSide{off: make([]int32, len(lists)+1), arena: make([]labelEntry, 0, total)}
	for v, ls := range lists {
		s.arena = append(s.arena, ls...)
		s.off[v+1] = int32(len(s.arena))
	}
	return s
}

// pllBuilder is the index under construction: labels are appended to
// per-node lists in rank order, and finish flattens them once.
type pllBuilder struct {
	g       *graph.Graph
	rank    []int32        // node → landmark rank
	inv     []graph.NodeID // rank → node
	in, out [][]labelEntry // sorted by rank
}

// finish flattens the label lists into the index.
func (p *pllBuilder) finish() *PLL {
	return &PLL{rank: p.rank, in: flatten(p.in), out: flatten(p.out)}
}

// pllScratch is the per-BFS working set, allocated once per worker and
// reused across landmarks: the distance array, the root-label index for
// O(1) prune queries, the BFS frontiers, the touched list that resets
// dist, and the candidate buffer. Hoisting these out of the per-
// landmark loop removes the dominant allocations of index construction
// (pinned by BenchmarkPLLBuild's ReportAllocs).
type pllScratch struct {
	dist      []int32
	rootLabel []int32
	frontier  []graph.NodeID
	next      []graph.NodeID
	touched   []graph.NodeID
	cand      []labelCand
}

func newPLLScratch(n int) *pllScratch {
	sc := &pllScratch{
		dist:      make([]int32, n),
		rootLabel: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		sc.dist[i] = -1
		sc.rootLabel[i] = -1
	}
	return sc
}

// newPLLSkeleton builds the shared preamble of both constructions: the
// degree-descending landmark order (ties broken on the smaller node ID,
// so the ranking — and hence the whole index — is deterministic).
func newPLLSkeleton(g *graph.Graph) *pllBuilder {
	n := g.NumNodes()
	p := &pllBuilder{
		g:    g,
		rank: make([]int32, n),
		inv:  make([]graph.NodeID, n),
		in:   make([][]labelEntry, n),
		out:  make([][]labelEntry, n),
	}
	for i := range p.inv {
		p.inv[i] = graph.NodeID(i)
	}
	sort.Slice(p.inv, func(a, b int) bool {
		da, db := g.Degree(p.inv[a]), g.Degree(p.inv[b])
		if da != db {
			return da > db
		}
		return p.inv[a] < p.inv[b]
	})
	for r, v := range p.inv {
		p.rank[v] = int32(r)
	}
	return p
}

// NewPLL builds the index sequentially: one pruned forward and one
// pruned backward BFS per node, in rank order. It is the reference
// construction — NewPLLParallel produces a bit-identical index and is
// what production call sites use.
func NewPLL(g *graph.Graph) *PLL {
	p := newPLLSkeleton(g)
	n := g.NumNodes()
	sc := newPLLScratch(n)
	for r := 0; r < n; r++ {
		root := p.inv[r]
		p.commit(int32(r), true, p.prunedBFS(root, int32(r), true, sc))
		p.commit(int32(r), false, p.prunedBFS(root, int32(r), false, sc))
	}
	return p.finish()
}

// seedLandmarks is how many top-rank landmarks the parallel build
// indexes sequentially before fanning out. The highest-degree landmarks
// do nearly all the pruning, so committing them first keeps the
// speculative phase's wasted (verify-rejected) work small.
const seedLandmarks = 16

// NewPLLParallel builds the same index as NewPLL — label-for-label —
// with the per-landmark BFS runs fanned out over a worker pool.
// workers ≤ 0 means one per logical CPU; 1 degrades to the sequential
// build.
//
// The schedule exploits that pruned labeling is canonical: node v
// carries label (r, d) iff d = dist(r→v) and no lower-rank landmark
// covers the pair at that distance — a property of the graph and the
// rank order alone, not of construction interleaving. After the seed
// ranks are committed sequentially, the remaining ranks run in batches:
// every BFS in a batch prunes against the labels committed before the
// batch (a subset of what the sequential build would have seen, so it
// can only under-prune — candidates are a superset of the true labels,
// with correct distances), and a sequential rank-ordered merge then
// re-checks each candidate against the by-then-complete lower-rank
// labels, keeping exactly the canonical ones. Batches grow
// geometrically: early ranks prune hardest, so small early batches
// bound speculative waste while later ranks amortize the barriers.
func NewPLLParallel(g *graph.Graph, workers int) *PLL {
	workers = par.Workers(workers)
	n := g.NumNodes()
	if workers <= 1 || n <= seedLandmarks {
		return NewPLL(g)
	}

	p := newPLLSkeleton(g)
	seedSc := newPLLScratch(n)
	for r := 0; r < seedLandmarks; r++ {
		root := p.inv[r]
		p.commit(int32(r), true, p.prunedBFS(root, int32(r), true, seedSc))
		p.commit(int32(r), false, p.prunedBFS(root, int32(r), false, seedSc))
	}

	// Per-worker scratch, handed out through a free list. Workers check
	// one out per item, so at most `workers` are live at once.
	free := make(chan *pllScratch, workers)
	free <- seedSc
	for i := 1; i < workers; i++ {
		free <- newPLLScratch(n)
	}

	type rankCands struct {
		fwd, bwd []labelCand
	}
	batch := 2 * workers
	const maxBatch = 1024
	for lo := seedLandmarks; lo < n; {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		cands := make([]rankCands, hi-lo)
		par.ForEach(workers, hi-lo, func(i int) {
			sc := <-free
			r := int32(lo + i)
			root := p.inv[r]
			cands[i].fwd = append([]labelCand(nil), p.prunedBFS(root, r, true, sc)...)
			cands[i].bwd = append([]labelCand(nil), p.prunedBFS(root, r, false, sc)...)
			free <- sc
		})

		// Merge in rank order, re-verifying every candidate against the
		// now-complete lower-rank labels. verifyScratch only needs the
		// rootLabel index; reuse the seed scratch (idle during merges).
		sc := <-free
		for i := 0; i < hi-lo; i++ {
			r := int32(lo + i)
			p.mergeVerified(r, true, cands[i].fwd, sc)
			p.mergeVerified(r, false, cands[i].bwd, sc)
		}
		free <- sc

		lo = hi
		if batch < maxBatch {
			batch *= 2
		}
	}
	return p.finish()
}

// commit appends a BFS's candidate labels as-is: the sequential build's
// pruning already consulted every lower-rank label, so its candidates
// are final.
func (p *pllBuilder) commit(rrank int32, forward bool, cands []labelCand) {
	for _, c := range cands {
		if forward {
			p.in[c.v] = append(p.in[c.v], labelEntry{rank: rrank, d: c.d})
		} else {
			p.out[c.v] = append(p.out[c.v], labelEntry{rank: rrank, d: c.d})
		}
	}
}

// mergeVerified appends the candidates that survive re-checking against
// the committed lower-rank labels. The check is literally the BFS prune
// predicate, evaluated against the labels the sequential build would
// have had at rank rrank — so a candidate survives iff the sequential
// BFS would have labeled it, and the merged index is bit-identical.
// Merging in rank order keeps every per-node label list rank-sorted,
// exactly like sequential appends.
func (p *pllBuilder) mergeVerified(rrank int32, forward bool, cands []labelCand, sc *pllScratch) {
	root := p.inv[rrank]
	rootSide := p.out[root]
	if !forward {
		rootSide = p.in[root]
	}
	for _, le := range rootSide {
		sc.rootLabel[le.rank] = le.d
	}
	sc.rootLabel[rrank] = 0

	for _, c := range cands {
		if c.v != root && p.coveredBy(c.v, c.d, sc.rootLabel, forward) {
			continue
		}
		if forward {
			p.in[c.v] = append(p.in[c.v], labelEntry{rank: rrank, d: c.d})
		} else {
			p.out[c.v] = append(p.out[c.v], labelEntry{rank: rrank, d: c.d})
		}
	}

	for _, le := range rootSide {
		sc.rootLabel[le.rank] = -1
	}
	sc.rootLabel[rrank] = -1
}

// prunedBFS collects the label candidates for one landmark into sc.cand
// (returned; valid until the next call with the same scratch).
// forward=true walks out-edges and yields in-label candidates of
// reached nodes (they are reached FROM root); forward=false walks
// in-edges and yields out-label candidates. Pruning consults the labels
// committed so far: under the sequential schedule that is every lower
// rank, making the candidates final; under the batched schedule it is a
// subset, making them a superset of the final labels that mergeVerified
// filters.
func (p *pllBuilder) prunedBFS(root graph.NodeID, rrank int32, forward bool, sc *pllScratch) []labelCand {
	// Index the root's existing labels for O(1) prune queries.
	// For forward BFS we need dist(root→u) ≤ d via existing labels:
	// min over common landmarks of root.out and u.in.
	rootSide := p.out[root]
	if !forward {
		rootSide = p.in[root]
	}
	for _, le := range rootSide {
		sc.rootLabel[le.rank] = le.d
	}
	sc.rootLabel[rrank] = 0

	sc.dist[root] = 0
	frontier := append(sc.frontier[:0], root)
	touched := append(sc.touched[:0], root)
	next := sc.next[:0]
	cand := sc.cand[:0]

	for len(frontier) > 0 {
		next = next[:0]
		for _, v := range frontier {
			dv := sc.dist[v]
			// Prune: if the existing labels already certify
			// dist(root,v) ≤ dv, neither label nor expand v.
			if v != root && p.coveredBy(v, dv, sc.rootLabel, forward) {
				continue
			}
			cand = append(cand, labelCand{v: v, d: dv})
			edges := p.g.Out(v)
			if !forward {
				edges = p.g.In(v)
			}
			for _, e := range edges {
				if sc.dist[e.To] >= 0 {
					continue
				}
				// Nodes ranked above the current landmark were already
				// processed as landmarks; paths through them are covered.
				if p.rank[e.To] < rrank {
					continue
				}
				sc.dist[e.To] = dv + 1
				next = append(next, e.To)
				touched = append(touched, e.To)
			}
		}
		frontier, next = next, frontier
	}

	// Reset scratch. frontier/next may have swapped an arbitrary number
	// of times; store both back so their capacity is kept either way.
	for _, v := range touched {
		sc.dist[v] = -1
	}
	for _, le := range rootSide {
		sc.rootLabel[le.rank] = -1
	}
	sc.rootLabel[rrank] = -1
	sc.frontier, sc.next, sc.touched, sc.cand = frontier, next, touched, cand
	return cand
}

// coveredBy reports whether existing labels certify dist(root, v) ≤ d
// (forward) or dist(v, root) ≤ d (backward), where rootLabel holds the
// root-side label distances indexed by landmark rank.
func (p *pllBuilder) coveredBy(v graph.NodeID, d int32, rootLabel []int32, forward bool) bool {
	side := p.in[v]
	if !forward {
		side = p.out[v]
	}
	for _, le := range side {
		if rd := rootLabel[le.rank]; rd >= 0 && rd+le.d <= d {
			return true
		}
	}
	return false
}

// Dist answers an exact directed distance query by merge-intersecting
// the sorted out-labels of s with the in-labels of t.
func (p *PLL) Dist(s, t graph.NodeID) int {
	if s == t {
		return 0
	}
	ls, lt := p.out.of(s), p.in.of(t)
	best := int32(-1)
	i, j := 0, 0
	for i < len(ls) && j < len(lt) {
		switch {
		case ls[i].rank < lt[j].rank:
			i++
		case ls[i].rank > lt[j].rank:
			j++
		default:
			if sum := ls[i].d + lt[j].d; best < 0 || sum < best {
				best = sum
			}
			i++
			j++
		}
	}
	// s or t may themselves be landmarks: rank(s) appears in lt, rank(t)
	// in ls, via the (self, 0) label added during construction, so the
	// merge above already covers those cases.
	if best < 0 {
		return graph.Unreachable
	}
	return int(best)
}

// Within reports dist(s, t) ≤ bound without computing the exact
// distance: the label merge returns on the first landmark pair whose
// distance sum meets the bound. Bounded reachability is the matcher's
// dominant query shape (every pattern-edge check is a Within), and most
// true answers are certified by the first few (highest-rank) landmarks,
// so the early exit skips the bulk of both label lists.
func (p *PLL) Within(s, t graph.NodeID, bound int) bool {
	if s == t {
		return bound >= 0
	}
	ls, lt := p.out.of(s), p.in.of(t)
	i, j := 0, 0
	for i < len(ls) && j < len(lt) {
		switch {
		case ls[i].rank < lt[j].rank:
			i++
		case ls[i].rank > lt[j].rank:
			j++
		default:
			if int(ls[i].d)+int(lt[j].d) <= bound {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// LabelSize returns the total number of label entries, a measure of
// index memory.
func (p *PLL) LabelSize() int { return len(p.in.arena) + len(p.out.arena) }
