package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// graphUID issues process-unique graph identities (used to key caches
// that must never serve tables built over a different graph).
var graphUID atomic.Uint64

// NodeID identifies a node in a Graph. IDs are dense and start at 0.
type NodeID int32

// Edge is one directed adjacency entry.
type Edge struct {
	To    NodeID // neighbor (head for out-edges, tail for in-edges)
	Label int32  // interned edge label; 0 means unlabeled
}

// rawEdge is one entry of the append-only edge log, the authoritative
// edge list in insertion order. The CSR adjacency arenas are derived
// from it by two stable counting sorts, so per-node out-edge order and
// per-node in-edge order both reproduce the exact orders the old
// slice-of-slices representation exposed.
type rawEdge struct {
	From, To NodeID
	Label    int32
}

// AttrValue is one attribute-value pair of a node tuple f_A(v).
type AttrValue struct {
	Attr int32 // interned attribute name
	Val  Value
}

// Graph is a directed, attributed graph G = (V, E, L, f_A) in a
// CSR-style layout: node labels, attribute tuples, and both adjacency
// directions live in flat arenas indexed by per-node offset arrays, so
// a million-node graph is a handful of large allocations instead of
// millions of small ones, and the whole structure serializes to a
// binary snapshot (see snapshot.go) with no pointer chasing.
//
// Graphs are built single-threaded; afterwards all read methods are
// safe for concurrent use. Mutations append to build-side logs and set
// an atomic dirty flag; the first read after a mutation compacts the
// logs into the CSR arenas under lazyMu (the same mutex that guards the
// lazily computed diameter and active-domain caches). Once compacted —
// and mutation-free graphs compact exactly once — every read is a flag
// check plus flat array indexing.
type Graph struct {
	// Labels interns node and edge labels; Attrs interns attribute names.
	Labels *Interner
	Attrs  *Interner

	// CSR read core. labels, attrOff, and attrArena are maintained by
	// AddNode and always current; the adjacency arenas and the by-label
	// index are valid whenever dirty is false.
	labels     []int32            // node label, indexed by NodeID
	attrOff    []int32            // len NumNodes()+1; tuple of v is attrArena[attrOff[v]:attrOff[v+1]]
	attrArena  []AttrValue        // all node tuples, each sorted by Attr
	outOff     []int32            // len NumNodes()+1
	outEdges   []Edge             // out-adjacency arena, grouped by source
	inOff      []int32            // len NumNodes()+1
	inEdges    []Edge             // in-adjacency arena, grouped by target
	byLabel    map[int32][]NodeID // label id → ascending-ID run of byLabelAll
	byLabelAll []NodeID           // runs concatenated in label-id order

	// Build-side state. edgeLog is retained after compaction for graphs
	// built through AddEdge so later mutations can recompact without
	// losing the original edge insertion order; snapshot-loaded graphs
	// synthesize it on first mutation (in source-major order — see
	// ensureEdgeLog).
	edgeLog []rawEdge
	edges   int

	// dirty is set by every mutation and cleared by compact. Reads load
	// it with acquire semantics, so a reader that observes false also
	// observes the completed CSR arenas.
	dirty atomic.Bool

	// lazily computed caches, invalidated on mutation
	lazyMu sync.Mutex
	diam   int // guarded by lazyMu
	// codes holds the active domains and the code column (adom.go).
	// Stored under lazyMu; loaded without it, so a warm read is one
	// atomic load.
	codes atomic.Pointer[Codes]

	uid uint64
}

// New returns an empty graph.
func New() *Graph {
	g := &Graph{
		Labels:  NewInterner(),
		Attrs:   NewInterner(),
		attrOff: []int32{0},
		diam:    -1,
		uid:     graphUID.Add(1),
	}
	// Born dirty: the first read compacts, so the CSR arenas (offset
	// arrays in particular) are always materialized, even for an empty
	// graph.
	g.dirty.Store(true)
	return g
}

// UID returns a process-unique identity for this graph instance.
func (g *Graph) UID() uint64 { return g.uid }

// NumNodes returns |V|. It never triggers compaction.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns |E|. It never triggers compaction.
func (g *Graph) NumEdges() int { return g.edges }

// Reserve pre-sizes the build-side arenas for a graph of known shape:
// nodes, edges, and total attribute-tuple entries (0 skips the arena it
// sizes). Loaders that know the counts — the datagen generators up
// front, the JSON reader as the elements its meta header announced
// arrive — call it so a million-node build does a handful of
// allocations instead of log-many regrowths.
func (g *Graph) Reserve(nodes, edges, attrEntries int) {
	if nodes > 0 && cap(g.labels)-len(g.labels) < nodes {
		g.labels = append(make([]int32, 0, len(g.labels)+nodes), g.labels...)
		g.attrOff = append(make([]int32, 0, len(g.labels)+nodes+1), g.attrOff...)
	}
	if edges > 0 && cap(g.edgeLog)-len(g.edgeLog) < edges {
		g.edgeLog = append(make([]rawEdge, 0, len(g.edgeLog)+edges), g.edgeLog...)
	}
	if attrEntries > 0 && cap(g.attrArena)-len(g.attrArena) < attrEntries {
		g.attrArena = append(make([]AttrValue, 0, len(g.attrArena)+attrEntries), g.attrArena...)
	}
}

// AddNode adds a node with the given label and attribute tuple and
// returns its id.
func (g *Graph) AddNode(label string, attrs map[string]Value) NodeID {
	// Intern in sorted-name order so attribute ids (and everything
	// derived from them) are deterministic across runs regardless of
	// map iteration order.
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	tuple := make([]AttrValue, 0, len(attrs))
	for _, name := range names {
		tuple = append(tuple, AttrValue{Attr: g.Attrs.Intern(name), Val: attrs[name]})
	}
	return g.AddNodeTuple(label, tuple)
}

// AddNodeTuple is AddNode's allocation-light fast path: the tuple's
// attribute names are already interned through g.Attrs. The entries
// need not arrive sorted; duplicate attribute ids keep the last value.
// The tuple is copied into the graph's arena — the caller keeps
// ownership of (and may reuse) the slice.
func (g *Graph) AddNodeTuple(label string, tuple []AttrValue) NodeID {
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, g.Labels.Intern(label))
	start := len(g.attrArena)
	g.attrArena = append(g.attrArena, tuple...)
	seg := g.attrArena[start:]
	sort.SliceStable(seg, func(i, j int) bool { return seg[i].Attr < seg[j].Attr })
	// Drop duplicate attribute ids, keeping the last occurrence (the
	// stable sort preserves input order within an id run).
	w := 0
	for i := 0; i < len(seg); i++ {
		if i+1 < len(seg) && seg[i+1].Attr == seg[i].Attr {
			continue
		}
		seg[w] = seg[i]
		w++
	}
	g.attrArena = g.attrArena[:start+w]
	g.attrOff = append(g.attrOff, int32(len(g.attrArena)))
	g.invalidate()
	return id
}

// AddEdge adds a directed edge from → to with an optional label.
func (g *Graph) AddEdge(from, to NodeID, label string) {
	g.ensureEdgeLog()
	g.edgeLog = append(g.edgeLog, rawEdge{From: from, To: to, Label: g.Labels.Intern(label)})
	g.edges++
	g.invalidate()
}

// ensureEdgeLog materializes the edge log for graphs whose CSR arenas
// did not come from one — snapshot restores drop the log because an
// unmutated graph never needs it. The synthesized log lists edges in
// source-major order (source id, then position in its out-list), which
// preserves every out-adjacency exactly; in-adjacency order after a
// later compaction is then source-major too, not the original global
// insertion order. JSON round-trips have always had this property —
// WriteJSON emits edges source-major — and no read path's semantics
// depend on in-edge order; only byte-identity against a never-restored
// graph would notice, and that comparison is only guaranteed for
// unmutated restores.
func (g *Graph) ensureEdgeLog() {
	if len(g.edgeLog) == g.edges {
		return
	}
	log := make([]rawEdge, 0, g.edges)
	for v := 0; v < len(g.outOff)-1; v++ {
		for _, e := range g.outEdges[g.outOff[v]:g.outOff[v+1]] {
			log = append(log, rawEdge{From: NodeID(v), To: e.To, Label: e.Label})
		}
	}
	g.edgeLog = log
}

// invalidate marks the CSR view and the lazy caches stale. The dirty
// flag is flipped under lazyMu so a concurrent compact cannot clear a
// flag set for a mutation it did not see — though mutations are
// single-threaded by contract, keeping the pairing locked makes the
// discipline local and checkable.
func (g *Graph) invalidate() {
	g.lazyMu.Lock()
	defer g.lazyMu.Unlock()
	g.diam = -1
	g.codes.Store(nil)
	g.dirty.Store(true)
}

// ensure makes the CSR view current. The fast path — every read after
// construction settles — is one atomic load.
func (g *Graph) ensure() {
	if g.dirty.Load() {
		g.compact()
	}
}

// compact folds the build-side logs into the CSR arenas: the edge log
// counting-sorts into both adjacency arenas (stably, so per-node edge
// order reproduces the append order of the old slice-of-slices layout),
// and the by-label index rebuilds as ascending-ID runs over one backing
// slice. Readers that observe dirty == false afterwards observe the
// completed arenas — the atomic store publishes them.
func (g *Graph) compact() {
	g.lazyMu.Lock()
	defer g.lazyMu.Unlock()
	if !g.dirty.Load() {
		return // another reader compacted while this one waited
	}
	n := len(g.labels)

	// Adjacency: two stable counting sorts over the edge log.
	g.outOff = offsetsFor(n, g.edgeLog, func(e rawEdge) NodeID { return e.From })
	g.inOff = offsetsFor(n, g.edgeLog, func(e rawEdge) NodeID { return e.To })
	g.outEdges = make([]Edge, len(g.edgeLog))
	g.inEdges = make([]Edge, len(g.edgeLog))
	outCur := append([]int32(nil), g.outOff[:n]...)
	inCur := append([]int32(nil), g.inOff[:n]...)
	for _, e := range g.edgeLog {
		g.outEdges[outCur[e.From]] = Edge{To: e.To, Label: e.Label}
		outCur[e.From]++
		g.inEdges[inCur[e.To]] = Edge{To: e.From, Label: e.Label}
		inCur[e.To]++
	}

	g.rebuildByLabel()

	g.dirty.Store(false)
}

// rebuildByLabel rebuilds the by-label index: ascending-ID runs per
// label id, concatenated in label-id order over one backing slice. Node
// ids ascend with insertion, so each run reproduces the append order of
// the old per-label slices. Called from compact (under lazyMu) and from
// the snapshot reader (single-threaded construction).
func (g *Graph) rebuildByLabel() {
	n := len(g.labels)
	numLabels := g.Labels.Len()
	cnt := make([]int32, numLabels+1)
	for _, l := range g.labels {
		cnt[l+1]++
	}
	for i := 0; i < numLabels; i++ {
		cnt[i+1] += cnt[i]
	}
	g.byLabelAll = make([]NodeID, n)
	cur := append([]int32(nil), cnt[:numLabels]...)
	for v, l := range g.labels {
		g.byLabelAll[cur[l]] = NodeID(v)
		cur[l]++
	}
	g.byLabel = make(map[int32][]NodeID, numLabels)
	for l := 0; l < numLabels; l++ {
		if cnt[l] < cnt[l+1] {
			g.byLabel[int32(l)] = g.byLabelAll[cnt[l]:cnt[l+1]]
		}
	}
}

// offsetsFor builds the (n+1)-length offset array of a counting sort of
// the edge log under the given endpoint key.
func offsetsFor(n int, log []rawEdge, key func(rawEdge) NodeID) []int32 {
	off := make([]int32, n+1)
	for _, e := range log {
		off[key(e)+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	return off
}

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) string { return g.Labels.Name(g.labels[v]) }

// LabelID returns the interned label of node v.
func (g *Graph) LabelID(v NodeID) int32 { return g.labels[v] }

// Attr returns the value of attribute name on node v.
func (g *Graph) Attr(v NodeID, name string) (Value, bool) {
	aid, ok := g.Attrs.Lookup(name)
	if !ok {
		return Value{}, false
	}
	return g.AttrByID(v, aid)
}

// AttrByID returns the value of the interned attribute aid on node v.
// Tuples are a handful of cells sorted by attribute id, so a scan that
// stops at the first id not below aid beats a binary search's closure
// calls.
func (g *Graph) AttrByID(v NodeID, aid int32) (Value, bool) {
	tuple := g.Tuple(v)
	for i := range tuple {
		if a := tuple[i].Attr; a >= aid {
			if a == aid {
				return tuple[i].Val, true
			}
			break
		}
	}
	return Value{}, false
}

// Tuple returns the attribute tuple f_A(v), sorted by attribute id.
// The caller must not mutate the returned slice.
func (g *Graph) Tuple(v NodeID) []AttrValue {
	return g.attrArena[g.attrOff[v]:g.attrOff[v+1]]
}

// Out returns the out-adjacency of v. The caller must not mutate it.
func (g *Graph) Out(v NodeID) []Edge {
	g.ensure()
	return g.outEdges[g.outOff[v]:g.outOff[v+1]]
}

// In returns the in-adjacency of v. The caller must not mutate it.
func (g *Graph) In(v NodeID) []Edge {
	g.ensure()
	return g.inEdges[g.inOff[v]:g.inOff[v+1]]
}

// Degree returns the total (in+out) degree of v.
func (g *Graph) Degree(v NodeID) int {
	g.ensure()
	return int(g.outOff[v+1] - g.outOff[v] + g.inOff[v+1] - g.inOff[v])
}

// NodesByLabel returns all nodes carrying the given label, or every node
// when label is the empty wildcard. The caller must not mutate the
// returned slice (except for the wildcard case, which is fresh).
func (g *Graph) NodesByLabel(label string) []NodeID {
	if label == "" {
		all := make([]NodeID, g.NumNodes())
		for i := range all {
			all[i] = NodeID(i)
		}
		return all
	}
	lid, ok := g.Labels.Lookup(label)
	if !ok {
		return nil
	}
	g.ensure()
	return g.byLabel[lid]
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d, labels=%d, attrs=%d)",
		g.NumNodes(), g.NumEdges(), g.Labels.Len()-1, g.Attrs.Len()-1)
}
