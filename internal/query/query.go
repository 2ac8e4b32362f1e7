// Package query implements graph pattern queries (Section 2.1): a query
// is a graph whose nodes carry labels and predicate literals, whose
// edges carry hop bounds (edge-to-path matching), and which designates
// one focus node u_o whose matches are the query answer.
package query

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"wqe/internal/graph"
)

// NodeID indexes a pattern node within a Query.
type NodeID int

// Literal is a constant search predicate u.A op c attached to a pattern
// node.
type Literal struct {
	Attr string
	Op   graph.Op
	Val  graph.Value
}

// String renders the literal as "A op c".
func (l Literal) String() string {
	return l.Attr + " " + l.Op.String() + " " + l.Val.String()
}

// Equal reports literal identity.
func (l Literal) Equal(m Literal) bool {
	return l.Attr == m.Attr && l.Op == m.Op && l.Val.Equal(m.Val)
}

// Compare is the one order on literals: by attribute, operator, kind of
// the constant, then the constant — anything but a Number by Str, Numbers
// as cmp.Compare orders floats (NaN below every number) and, where that
// calls two equal, by bit pattern (NaN payloads, 0 before -0). It is
// total, and zero exactly when the literals have equal keys (AppendKey).
func (l Literal) Compare(m Literal) int {
	a, b := l.Val, m.Val
	if c := cmp.Or(strings.Compare(l.Attr, m.Attr), cmp.Compare(l.Op, m.Op), cmp.Compare(a.Kind, b.Kind)); c != 0 {
		return c
	}
	if a.Kind != graph.Number {
		return strings.Compare(a.Str, b.Str)
	}
	return cmp.Or(cmp.Compare(a.Num, b.Num), cmp.Compare(math.Float64bits(a.Num), math.Float64bits(b.Num)))
}

// AppendKey appends the literal's identity to dst: attribute, operator
// and the constant's key (graph.Value.AppendKey), each self-delimiting.
func (l Literal) AppendKey(dst []byte) []byte {
	dst = graph.AppendKeyString(dst, l.Attr)
	dst = append(dst, byte(l.Op))
	return l.Val.AppendKey(dst)
}

// Sat reports whether node v of g satisfies the literal: v must carry
// the attribute and the comparison must hold.
func (l Literal) Sat(g *graph.Graph, v graph.NodeID) bool {
	val, ok := g.Attr(v, l.Attr)
	if !ok {
		return false
	}
	return l.Op.Holds(val, l.Val)
}

// Node is one pattern node: a label (empty = wildcard '⊥') and a set of
// literals F_Q(u).
type Node struct {
	Label    string
	Literals []Literal
}

// Edge is a pattern edge with a hop bound: a graph match must provide a
// directed path of length ≤ Bound from the match of From to the match
// of To. Bound 1 is ordinary edge matching (subgraph isomorphism's
// special case).
type Edge struct {
	From, To NodeID
	Bound    int
}

// Query is a graph pattern query Q = (V_Q, E_Q, L_Q, F_Q, u_o).
type Query struct {
	Nodes []Node
	Edges []Edge
	Focus NodeID
}

// New returns an empty query; add nodes and edges, then set Focus.
func New() *Query { return &Query{} }

// AddNode appends a pattern node and returns its id.
func (q *Query) AddNode(label string, lits ...Literal) NodeID {
	q.Nodes = append(q.Nodes, Node{Label: label, Literals: append([]Literal(nil), lits...)})
	return NodeID(len(q.Nodes) - 1)
}

// AddEdge appends a pattern edge with the given hop bound.
func (q *Query) AddEdge(from, to NodeID, bound int) {
	if bound < 1 {
		bound = 1
	}
	q.Edges = append(q.Edges, Edge{From: from, To: to, Bound: bound})
}

// Validate checks structural sanity: a focus in range, edges in range,
// positive bounds, no self-loops, and constants a graph could hold (no
// NaN, no value of neither kind; graph.Value.Canonical).
func (q *Query) Validate() error {
	n := len(q.Nodes)
	if n == 0 {
		return fmt.Errorf("query: no nodes")
	}
	if int(q.Focus) < 0 || int(q.Focus) >= n {
		return fmt.Errorf("query: focus %d out of range [0,%d)", q.Focus, n)
	}
	for u, node := range q.Nodes {
		for _, l := range node.Literals {
			if _, err := l.Val.Canonical(); err != nil {
				return fmt.Errorf("query: literal %s of node %d: %w", l, u, err)
			}
		}
	}
	for i, e := range q.Edges {
		if int(e.From) < 0 || int(e.From) >= n || int(e.To) < 0 || int(e.To) >= n {
			return fmt.Errorf("query: edge %d endpoints out of range", i)
		}
		if e.From == e.To {
			return fmt.Errorf("query: edge %d is a self-loop", i)
		}
		if e.Bound < 1 {
			return fmt.Errorf("query: edge %d has non-positive bound", i)
		}
		if e.Bound > math.MaxInt32 {
			return fmt.Errorf("query: edge %d bound %d exceeds %d", i, e.Bound, math.MaxInt32)
		}
	}
	return nil
}

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	c := &Query{
		Nodes: make([]Node, len(q.Nodes)),
		Edges: append([]Edge(nil), q.Edges...),
		Focus: q.Focus,
	}
	for i, n := range q.Nodes {
		c.Nodes[i] = Node{Label: n.Label, Literals: append([]Literal(nil), n.Literals...)}
	}
	return c
}

// Size returns |Q| = node count + edge count + total literal count, the
// query-size parameter k1 of the paper's fixed-parameter analysis.
func (q *Query) Size() int {
	s := len(q.Nodes) + len(q.Edges)
	for _, n := range q.Nodes {
		s += len(n.Literals)
	}
	return s
}

// MaxBound returns the largest edge bound b_m appearing in the query
// (at least 1).
func (q *Query) MaxBound() int {
	b := 1
	for _, e := range q.Edges {
		if e.Bound > b {
			b = e.Bound
		}
	}
	return b
}

// HasLiteral reports whether pattern node u carries literal l.
func (q *Query) HasLiteral(u NodeID, l Literal) bool {
	for _, x := range q.Nodes[u].Literals {
		if x.Equal(l) {
			return true
		}
	}
	return false
}

// FindLiteral returns the index of the literal on attribute attr with
// operator op at node u, or -1.
func (q *Query) FindLiteral(u NodeID, attr string, op graph.Op) int {
	for i, x := range q.Nodes[u].Literals {
		if x.Attr == attr && x.Op == op {
			return i
		}
	}
	return -1
}

// FindEdge returns the index of the edge from → to, or -1.
func (q *Query) FindEdge(from, to NodeID) int {
	for i, e := range q.Edges {
		if e.From == from && e.To == to {
			return i
		}
	}
	return -1
}

// IncidentEdges returns the indices of edges touching u (either
// direction).
func (q *Query) IncidentEdges(u NodeID) []int {
	var out []int
	for i, e := range q.Edges {
		if e.From == u || e.To == u {
			out = append(out, i)
		}
	}
	return out
}

// Neighbors returns the pattern nodes adjacent to u, either direction,
// deduplicated, in ascending order.
func (q *Query) Neighbors(u NodeID) []NodeID {
	out := []NodeID{}
	for _, e := range q.Edges {
		switch u {
		case e.From:
			out = append(out, e.To)
		case e.To:
			out = append(out, e.From)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Candidates returns V_u: the graph nodes whose label matches u's label
// (wildcard matches all) and which satisfy every literal of u.
func (q *Query) Candidates(g *graph.Graph, u NodeID) []graph.NodeID {
	pn := q.Nodes[u]
	pool := g.NodesByLabel(pn.Label)
	if len(pn.Literals) == 0 {
		return pool
	}
	check := q.Check(g, u)
	if check.label == noLabel {
		return []graph.NodeID{}
	}
	out := make([]graph.NodeID, 0, len(pool))
	for _, v := range pool { // pool carries the label already
		if check.literals(g, v) {
			out = append(out, v)
		}
	}
	return out
}

// IsCandidate reports whether graph node v is a candidate of pattern
// node u.
func (q *Query) IsCandidate(g *graph.Graph, u NodeID, v graph.NodeID) bool {
	pn := q.Nodes[u]
	if pn.Label != "" && g.Label(v) != pn.Label {
		return false
	}
	for _, l := range pn.Literals {
		if !l.Sat(g, v) {
			return false
		}
	}
	return true
}

// PatternDist returns the shortest path length between pattern nodes a
// and b, treating each pattern edge as undirected with weight equal to
// its hop bound. This is the "distance between u_i and u_o in Q" used to
// label augmented star-view edges. Returns graph.Unreachable when the
// pattern is disconnected between a and b.
func (q *Query) PatternDist(a, b NodeID) int {
	if a == b {
		return 0
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, len(q.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	dist[a] = 0
	// Bellman-Ford style relaxation: queries are tiny, simplicity wins.
	for iter := 0; iter < len(q.Nodes); iter++ {
		changed := false
		for _, e := range q.Edges {
			if dist[e.From] != inf && dist[e.From]+e.Bound < dist[e.To] {
				dist[e.To] = dist[e.From] + e.Bound
				changed = true
			}
			if dist[e.To] != inf && dist[e.To]+e.Bound < dist[e.From] {
				dist[e.From] = dist[e.To] + e.Bound
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if dist[b] == inf {
		return graph.Unreachable
	}
	return dist[b]
}

// Topology classifies the query shape the way the paper's Exp-1 does.
type Topology int

// Topology classes.
const (
	TopoSingleton Topology = iota // no edges
	TopoStar                      // all edges share one center node
	TopoTree                      // acyclic, connected, not a star
	TopoCyclic                    // contains an (undirected) cycle
)

// String renders the topology class.
func (t Topology) String() string {
	switch t {
	case TopoSingleton:
		return "singleton"
	case TopoStar:
		return "star"
	case TopoTree:
		return "tree"
	case TopoCyclic:
		return "cyclic"
	}
	return "unknown"
}

// Shape returns the topology class of the query viewed undirected.
func (q *Query) Shape() Topology {
	if len(q.Edges) == 0 {
		return TopoSingleton
	}
	if len(q.Edges) >= len(q.Nodes) {
		return TopoCyclic
	}
	// Acyclic iff |E| = |V_connected| - 1 per component; detect a cycle
	// with union-find.
	parent := make([]int, len(q.Nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range q.Edges {
		a, b := find(int(e.From)), find(int(e.To))
		if a == b {
			return TopoCyclic
		}
		parent[a] = b
	}
	// Star: some node touches every edge.
	for u := range q.Nodes {
		touchAll := true
		for _, e := range q.Edges {
			if int(e.From) != u && int(e.To) != u {
				touchAll = false
				break
			}
		}
		if touchAll {
			return TopoStar
		}
	}
	return TopoTree
}

// AppendNodeSig appends the matching signature of pattern node n to dst:
// its label and its literals in Compare order, whatever order n lists
// them in. Nodes with equal signatures have equal candidates in every
// graph. This is the identity every key of the engine is built from — a
// rewrite (Query.AppendKey), a star table, a partner set.
func AppendNodeSig(dst []byte, n *Node) []byte {
	dst = graph.AppendKeyString(dst, n.Label)
	lits := n.Literals
	if !slices.IsSortedFunc(lits, Literal.Compare) {
		lits = slices.Clone(lits)
		slices.SortFunc(lits, Literal.Compare)
	}
	dst = binary.AppendUvarint(dst, uint64(len(lits)))
	for _, l := range lits {
		dst = l.AppendKey(dst)
	}
	return dst
}

// Key returns a deterministic canonical encoding of the query, used to
// deduplicate rewrites during the chase and to key the answer memo: two
// queries with equal keys have equal answers in every graph. Node order
// is significant (rewrites never reorder nodes); literal and edge order
// are not. The bytes are not text.
func (q *Query) Key() string {
	var buf [256]byte // most keys fit, and then only the string is allocated
	return string(q.AppendKey(buf[:0]))
}

// AppendKey appends the encoding Key returns to dst.
func (q *Query) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(q.Focus))
	dst = binary.AppendUvarint(dst, uint64(len(q.Nodes)))
	for i := range q.Nodes {
		dst = AppendNodeSig(dst, &q.Nodes[i])
	}
	byEnds := func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Bound, b.Bound))
	}
	edges := q.Edges
	if !slices.IsSortedFunc(edges, byEnds) {
		var buf [8]Edge // most patterns fit: then sorting allocates nothing
		edges = append(buf[:0], edges...)
		slices.SortFunc(edges, byEnds)
	}
	for _, e := range edges {
		dst = binary.AppendUvarint(dst, uint64(e.From))
		dst = binary.AppendUvarint(dst, uint64(e.To))
		dst = binary.AppendUvarint(dst, uint64(e.Bound))
	}
	return dst
}

// String renders a compact human-readable form of the query.
func (q *Query) String() string {
	var b strings.Builder
	for i, n := range q.Nodes {
		if i > 0 {
			b.WriteString("; ")
		}
		label := n.Label
		if label == "" {
			label = "⊥"
		}
		fmt.Fprintf(&b, "u%d:%s", i, label)
		if NodeID(i) == q.Focus {
			b.WriteString("*")
		}
		if len(n.Literals) > 0 {
			b.WriteByte('[')
			for j, l := range n.Literals {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(l.String())
			}
			b.WriteByte(']')
		}
	}
	for _, e := range q.Edges {
		fmt.Fprintf(&b, "; (u%d)-%d->(u%d)", e.From, e.Bound, e.To)
	}
	return b.String()
}

// IsolatedIgnored reports whether pattern node u poses no constraint on
// matching: a non-focus node with no incident edges. Such nodes arise
// when RmE detaches an endpoint (the operator keeps the node so that
// node indices stay stable across operator reordering); semantically
// the detached constraint is gone, so matching ignores the node.
func (q *Query) IsolatedIgnored(u NodeID) bool {
	if u == q.Focus {
		return false
	}
	for _, e := range q.Edges {
		if e.From == u || e.To == u {
			return false
		}
	}
	return true
}

// NodeCheck is a compiled candidate predicate for one pattern node:
// the label resolved to its interned id and every literal to an interval
// of value codes (graph.Codes), so a hot matching loop tests a node with
// integer compares over its 8-byte coded cells and touches no string and
// no graph.Value.
type NodeCheck struct {
	// label is the interned label a node must carry: anyLabel for the
	// wildcard, noLabel when no node can pass (the label, or a literal's
	// attribute, is absent from G).
	label int32
	lits  []compiledLit
}

// Labels are interned from 0, so no node carries a negative one.
const (
	anyLabel int32 = -1
	noLabel  int32 = -2
)

type compiledLit struct {
	aid int32
	// lo, hi: the codes of the attribute's values that satisfy the
	// literal (graph.Codes.Interval), so "lo <= code <= hi" is
	// Literal.Sat; lo > hi when none does.
	lo, hi int32
}

// Check compiles the candidate predicate of pattern node u against g.
func (q *Query) Check(g *graph.Graph, u NodeID) NodeCheck {
	return q.Nodes[u].Check(g)
}

// Check compiles the node's candidate predicate against g.
func (n Node) Check(g *graph.Graph) NodeCheck {
	return compile(g, n.Label, n.Literals)
}

// Check compiles the literal alone against g: Candidate is then Sat.
func (l Literal) Check(g *graph.Graph) NodeCheck {
	return compile(g, "", []Literal{l})
}

func compile(g *graph.Graph, label string, literals []Literal) NodeCheck {
	c := NodeCheck{label: anyLabel}
	if label != "" {
		id, ok := g.Labels.Lookup(label)
		if !ok {
			return NodeCheck{label: noLabel}
		}
		c.label = id
	}
	if len(literals) == 0 {
		return c
	}
	codes := g.Codes()
	c.lits = make([]compiledLit, 0, len(literals))
	for _, l := range literals {
		aid, ok := g.Attrs.Lookup(l.Attr)
		if !ok {
			return NodeCheck{label: noLabel}
		}
		lo, hi := codes.Interval(aid, l.Op, l.Val)
		c.lits = append(c.lits, compiledLit{aid: aid, lo: lo, hi: hi})
	}
	slices.SortFunc(c.lits, func(a, b compiledLit) int { return int(a.aid - b.aid) })
	return c
}

// Candidate reports whether v satisfies the compiled predicate;
// equivalent to Query.IsCandidate but without string lookups.
func (c *NodeCheck) Candidate(g *graph.Graph, v graph.NodeID) bool {
	return (c.label == anyLabel || g.LabelID(v) == c.label) && c.literals(g, v)
}

// literals reports whether v satisfies every literal.
func (c *NodeCheck) literals(g *graph.Graph, v graph.NodeID) bool {
	if len(c.lits) == 0 {
		return true
	}
	// Tuples are a handful of cells sorted by attribute id, as lits is:
	// one forward scan meets every literal's cell.
	cells := g.Tuple(v)
	j := 0
	for i := range c.lits {
		l := &c.lits[i]
		for j < len(cells) && cells[j].Attr < l.aid {
			j++
		}
		if j == len(cells) || cells[j].Attr != l.aid {
			return false
		}
		if code := cells[j].Code; code < l.lo || code > l.hi {
			return false
		}
	}
	return true
}
