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
// the attribute and the comparison must hold. It is the by-value
// reference the compiled test (LitCheck, NodeCheck) is held to; the
// engine tests nodes only through the compiled one.
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
// (wildcard matches all) and which satisfy every literal of u. It is for
// callers outside a match, which compile no pattern: it compiles u alone
// (Compiled.Candidates).
func (q *Query) Candidates(g *graph.Graph, u NodeID) []graph.NodeID {
	one := &Query{Nodes: q.Nodes[u : u+1]}
	var c Compiled
	c.Compile(g, one)
	return c.Candidates(g, one, 0)
}

// IsCandidate reports whether graph node v is a candidate of pattern
// node u. Like Literal.Sat it is the by-value reference: the engine
// asks NodeCheck.Candidate, which tests agree with it.
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

// FocusDist returns, in dst resized to the pattern's node count, every
// pattern node's distance from the focus, treating each pattern edge as
// undirected with weight equal to its hop bound: the "distance between
// u_i and u_o in Q" that labels augmented star-view edges and bounds
// partner balls. Nodes the pattern does not connect to the focus are
// graph.Unreachable. One single-source pass serves every node.
func (q *Query) FocusDist(dst []int) []int {
	if cap(dst) < len(q.Nodes) {
		dst = make([]int, len(q.Nodes))
	}
	dist := dst[:len(q.Nodes)]
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	if int(q.Focus) < 0 || int(q.Focus) >= len(dist) {
		return dist
	}
	dist[q.Focus] = 0
	// Bellman-Ford style relaxation: queries are tiny, simplicity wins.
	for range q.Nodes {
		changed := false
		for _, e := range q.Edges {
			for _, end := range [2][2]NodeID{{e.From, e.To}, {e.To, e.From}} {
				if d := dist[end[0]]; d != graph.Unreachable && d+e.Bound < dist[end[1]] {
					dist[end[1]], changed = d+e.Bound, true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
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
		var buf [8]Literal // most nodes fit: then sorting allocates nothing
		lits = append(buf[:0], lits...)
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
	lits  []LitCheck // sorted by attribute
}

// Labels are interned from 0, so no node carries a negative one.
const (
	anyLabel int32 = -1
	noLabel  int32 = -2
)

// LitCheck is one literal compiled against a graph: its attribute's
// interned id, -1 when no node of the graph carries it, and the codes
// [lo, hi] of the attribute's values that satisfy the literal
// (graph.Codes.Interval; lo > hi when none does). Sat is then
// Literal.Sat without a string lookup.
type LitCheck struct {
	Attr   int32
	lo, hi int32
}

// Sat reports whether v satisfies the literal.
func (c LitCheck) Sat(g *graph.Graph, v graph.NodeID) bool {
	for _, cell := range g.Tuple(v) { // sorted by attribute
		if cell.Attr >= c.Attr {
			return cell.Attr == c.Attr && c.lo <= cell.Code && cell.Code <= c.hi
		}
	}
	return false
}

// labelID is label's interned id in g: anyLabel for the wildcard,
// noLabel when no node carries it.
func labelID(g *graph.Graph, label string) int32 {
	if label == "" {
		return anyLabel
	}
	id, ok := g.Labels.Lookup(label)
	if !ok {
		return noLabel
	}
	return id
}

// compile compiles the literal against g.
func (l Literal) compile(g *graph.Graph) LitCheck {
	aid, ok := g.Attrs.Lookup(l.Attr)
	if !ok {
		return LitCheck{Attr: -1, lo: 0, hi: -1}
	}
	lo, hi := g.Codes().Interval(aid, l.Op, l.Val)
	return LitCheck{Attr: aid, lo: lo, hi: hi}
}

// nodeCheck assembles a node's predicate from its label's id and its
// literals' checks, which it sorts by attribute and keeps.
func nodeCheck(label int32, lits []LitCheck) NodeCheck {
	if slices.ContainsFunc(lits, func(l LitCheck) bool { return l.Attr < 0 }) {
		return NodeCheck{label: noLabel}
	}
	slices.SortFunc(lits, func(a, b LitCheck) int { return int(a.Attr - b.Attr) })
	return NodeCheck{label: label, lits: lits}
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
		for j < len(cells) && cells[j].Attr < l.Attr {
			j++
		}
		if j == len(cells) || cells[j].Attr != l.Attr {
			return false
		}
		if code := cells[j].Code; code < l.lo || code > l.hi {
			return false
		}
	}
	return true
}

// Compiled is a pattern compiled against one graph, for a search that
// asks of many graph nodes whether they are candidates of a pattern
// node, carry its label, or satisfy one of its literals, and every
// node's distance from the focus (FocusDist). A match compiles the
// pattern it evaluates once, into its result, and every test of a node
// against that pattern reads it; it is read-only once compiled.
type Compiled struct {
	Nodes []CompiledNode
	Dist  []int
}

// CompiledNode is one pattern node of a Compiled.
type CompiledNode struct {
	Check NodeCheck  // the node's candidate predicate
	Label NodeCheck  // its label alone
	Lits  []LitCheck // one per literal, in the node's order
}

// Compile compiles q against g into c. Every node's literal checks lie in
// one arena, so a compile allocates three slices whatever q's size.
func (c *Compiled) Compile(g *graph.Graph, q *Query) {
	n := 0
	for i := range q.Nodes {
		n += len(q.Nodes[i].Literals)
	}
	c.Nodes = make([]CompiledNode, len(q.Nodes))
	arena := make([]LitCheck, 2*n) // per node: its Lits, then its Check's sorted copy
	for u := range q.Nodes {
		nd, cn := &q.Nodes[u], &c.Nodes[u]
		k := len(nd.Literals)
		lits, sorted := arena[:k:k], arena[k:2*k:2*k]
		arena = arena[2*k:]
		for i, l := range nd.Literals {
			lits[i] = l.compile(g)
		}
		copy(sorted, lits)
		cn.Label, cn.Lits = NodeCheck{label: labelID(g, nd.Label)}, lits
		cn.Check = nodeCheck(cn.Label.label, sorted)
	}
	c.Dist = q.FocusDist(nil)
}

// Candidates returns V_u by c's test of u, where c is q compiled: the
// graph nodes carrying u's label (wildcard: all) that satisfy every
// literal of u, ascending.
func (c *Compiled) Candidates(g *graph.Graph, q *Query, u NodeID) []graph.NodeID {
	pool := g.NodesByLabel(q.Nodes[u].Label)
	check := &c.Nodes[u].Check
	if len(c.Nodes[u].Lits) == 0 {
		return pool
	}
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
