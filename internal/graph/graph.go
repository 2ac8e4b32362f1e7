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

// rawEdge is one entry of a Builder's edge log, the edge list in
// insertion order. Build derives the CSR adjacency arenas from it by two
// stable counting sorts, so per-node out-edge order and per-node in-edge
// order both follow insertion order.
type rawEdge struct {
	From, To NodeID
	Label    int32
}

// AttrValue is one attribute-value pair of a node tuple f_A(v), as a
// Builder takes it; a Graph stores it as an AttrCode.
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
// A Graph is made once, by Builder.Build or ReadSnapshot, and has no
// mutators, so every method is safe for concurrent use and every read is
// flat array indexing. The attribute tuples are stored once, as value
// codes (adom.go); a value is read through its code. The diameter is
// derived lazily, under a sync.Once.
type Graph struct {
	// Labels names node and edge labels; Attrs names attributes. Both
	// are read-only.
	Labels *Names
	Attrs  *Names

	labels     []int32            // node label, indexed by NodeID
	codes      *Codes             // the attribute column: coded tuples and the domains that decode them
	outOff     []int32            // len NumNodes()+1
	outEdges   []Edge             // out-adjacency arena, grouped by source
	inOff      []int32            // len NumNodes()+1
	inEdges    []Edge             // in-adjacency arena, grouped by target
	byLabel    map[int32][]NodeID // label id → ascending-ID run of byLabelAll
	byLabelAll []NodeID           // runs concatenated in label-id order
	allNodes   []NodeID           // every node, ascending: the wildcard's run

	diamOnce sync.Once
	diam     int

	uid uint64
}

// UID returns a process-unique identity for this graph instance.
func (g *Graph) UID() uint64 { return g.uid }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.outEdges) }

// Builder assembles a Graph: AddNode and AddEdge append to build-side
// logs, and Build lays them out once. A Builder is for one goroutine.
type Builder struct {
	// Labels interns node and edge labels; Attrs interns attribute names
	// (AddNodeTuple's tuples carry ids from it). Build hands both to the
	// Graph.
	Labels *Interner
	Attrs  *Interner

	labels    []int32
	attrOff   []int32
	attrArena []AttrValue
	edgeLog   []rawEdge
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{Labels: NewInterner(), Attrs: NewInterner(), attrOff: []int32{0}}
}

// NumNodes returns the number of nodes added since the last Build.
func (b *Builder) NumNodes() int { return len(b.labels) }

// reserve pre-sizes the arenas for nodes, edges, and attribute-tuple
// entries still to come (0 skips the arena it sizes), so the JSON reader
// does a handful of allocations for a million-node graph instead of
// log-many regrowths.
func (b *Builder) reserve(nodes, edges, attrEntries int) {
	if nodes > 0 && cap(b.labels)-len(b.labels) < nodes {
		b.labels = append(make([]int32, 0, len(b.labels)+nodes), b.labels...)
		b.attrOff = append(make([]int32, 0, len(b.labels)+nodes+1), b.attrOff...)
	}
	if edges > 0 && cap(b.edgeLog)-len(b.edgeLog) < edges {
		b.edgeLog = append(make([]rawEdge, 0, len(b.edgeLog)+edges), b.edgeLog...)
	}
	if attrEntries > 0 && cap(b.attrArena)-len(b.attrArena) < attrEntries {
		b.attrArena = append(make([]AttrValue, 0, len(b.attrArena)+attrEntries), b.attrArena...)
	}
}

// AddNode adds a node with the given label and attribute tuple and
// returns its id.
func (b *Builder) AddNode(label string, attrs map[string]Value) NodeID {
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
		tuple = append(tuple, AttrValue{Attr: b.Attrs.Intern(name), Val: attrs[name]})
	}
	return b.AddNodeTuple(label, tuple)
}

// AddNodeTuple is AddNode's allocation-light fast path: the tuple's
// attribute names are already interned through b.Attrs. The entries
// need not arrive sorted; duplicate attribute ids keep the last value.
// The tuple is copied into the builder's arena — the caller keeps
// ownership of (and may reuse) the slice.
func (b *Builder) AddNodeTuple(label string, tuple []AttrValue) NodeID {
	id := NodeID(len(b.labels))
	b.labels = append(b.labels, b.Labels.Intern(label))
	start := len(b.attrArena)
	b.attrArena = append(b.attrArena, tuple...)
	seg := b.attrArena[start:]
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
	b.attrArena = b.attrArena[:start+w]
	b.attrOff = append(b.attrOff, int32(len(b.attrArena)))
	return id
}

// AddEdge adds a directed edge from → to with an optional label.
func (b *Builder) AddEdge(from, to NodeID, label string) {
	b.edgeLog = append(b.edgeLog, rawEdge{From: from, To: to, Label: b.Labels.Intern(label)})
}

// Build lays out what was added as a Graph: the tuples are canonicalized
// and coded once into the attribute column (buildCodes) and dropped, the
// edge log counting-sorts into both adjacency arenas (stably, so
// per-node edge order is insertion order), and the by-label index is
// built as ascending-ID runs over one backing slice. It refuses a NaN
// or infinite cell, a value of neither kind and an attribute name
// holding "=". The Graph takes over the label arena and the interners'
// names, read-only, and b is reset to an empty builder, refused or not,
// so nothing added to b afterwards reaches the Graph.
func (b *Builder) Build() (*Graph, error) {
	codes, err := b.buildCodes()
	g := &Graph{Labels: &b.Labels.Names, Attrs: &b.Attrs.Names, labels: b.labels, codes: codes}
	log := b.edgeLog
	*b = *NewBuilder()
	if err != nil {
		return nil, err
	}
	g.uid = graphUID.Add(1)

	n := len(g.labels)
	g.outOff = offsetsFor(n, log, func(e rawEdge) NodeID { return e.From })
	g.inOff = offsetsFor(n, log, func(e rawEdge) NodeID { return e.To })
	g.outEdges = make([]Edge, len(log))
	g.inEdges = make([]Edge, len(log))
	outCur := append([]int32(nil), g.outOff[:n]...)
	inCur := append([]int32(nil), g.inOff[:n]...)
	for _, e := range log {
		g.outEdges[outCur[e.From]] = Edge{To: e.To, Label: e.Label}
		outCur[e.From]++
		g.inEdges[inCur[e.To]] = Edge{To: e.From, Label: e.Label}
		inCur[e.To]++
	}
	g.buildByLabel()
	return g, nil
}

// buildByLabel builds the by-label index: ascending-ID runs per label
// id, concatenated in label-id order over one backing slice, and the run
// of all nodes the wildcard label reads. Called by Build and by the
// snapshot reader.
func (g *Graph) buildByLabel() {
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
	g.allNodes = make([]NodeID, n)
	for v := range g.allNodes {
		g.allNodes[v] = NodeID(v)
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
	for _, c := range g.Tuple(v) {
		if c.Attr >= aid {
			if c.Attr == aid {
				return g.Value(c), true
			}
			break
		}
	}
	return Value{}, false
}

// Tuple returns the attribute tuple f_A(v) as value codes, sorted by
// attribute id; Value reads a cell's value. The caller must not mutate
// the returned slice.
func (g *Graph) Tuple(v NodeID) []AttrCode {
	c := g.codes
	return c.cells[c.off[v]:c.off[v+1]]
}

// Value returns the value a cell of the graph stands for: its code's
// entry in its attribute's active domain.
func (g *Graph) Value(c AttrCode) Value {
	return g.codes.doms[c.Attr].Values[c.Code-g.codes.base[c.Attr]]
}

// Out returns the out-adjacency of v. The caller must not mutate it.
func (g *Graph) Out(v NodeID) []Edge {
	return g.outEdges[g.outOff[v]:g.outOff[v+1]]
}

// In returns the in-adjacency of v. The caller must not mutate it.
func (g *Graph) In(v NodeID) []Edge {
	return g.inEdges[g.inOff[v]:g.inOff[v+1]]
}

// Degree returns the total (in+out) degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.outOff[v+1] - g.outOff[v] + g.inOff[v+1] - g.inOff[v])
}

// NodesByLabel returns all nodes carrying the given label, or every node
// when label is the empty wildcard, in ascending order. The slice is the
// graph's own index, shared by every caller: the caller must not mutate
// it.
func (g *Graph) NodesByLabel(label string) []NodeID {
	if label == "" {
		return g.allNodes
	}
	lid, ok := g.Labels.Lookup(label)
	if !ok {
		return nil
	}
	return g.byLabel[lid]
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d, labels=%d, attrs=%d)",
		g.NumNodes(), g.NumEdges(), g.Labels.Len()-1, g.Attrs.Len()-1)
}
