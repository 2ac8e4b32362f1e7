package query

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wqe/internal/graph"
)

// sampleGraph: two people in one city, one person elsewhere.
func sampleGraph() *graph.Graph {
	gb := graph.NewBuilder()
	gb.AddNode("Person", map[string]graph.Value{"Age": graph.N(30), "Job": graph.S("eng")}) // 0
	gb.AddNode("Person", map[string]graph.Value{"Age": graph.N(50), "Job": graph.S("law")}) // 1
	gb.AddNode("City", map[string]graph.Value{"Pop": graph.N(100000)})                      // 2
	gb.AddNode("Person", map[string]graph.Value{"Age": graph.N(41)})                        // 3
	gb.AddEdge(0, 2, "lives")
	gb.AddEdge(1, 2, "lives")
	return mustBuild(gb)
}

func TestLiteralSat(t *testing.T) {
	g := sampleGraph()
	l := Literal{Attr: "Age", Op: graph.GE, Val: graph.N(40)}
	if l.Sat(g, 0) {
		t.Error("Age 30 should fail Age >= 40")
	}
	if !l.Sat(g, 1) {
		t.Error("Age 50 should pass Age >= 40")
	}
	missing := Literal{Attr: "Salary", Op: graph.GE, Val: graph.N(1)}
	if missing.Sat(g, 0) {
		t.Error("literal on missing attribute must fail")
	}
}

func TestCandidates(t *testing.T) {
	g := sampleGraph()
	q := New()
	u := q.AddNode("Person", Literal{Attr: "Age", Op: graph.GE, Val: graph.N(40)})
	q.Focus = u
	cands := q.Candidates(g, u)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want two (nodes 1 and 3)", cands)
	}
	// Wildcard label matches every node.
	q2 := New()
	w := q2.AddNode("")
	if got := len(q2.Candidates(g, w)); got != 4 {
		t.Errorf("wildcard candidates = %d, want 4", got)
	}
	if !q.IsCandidate(g, u, 1) || q.IsCandidate(g, u, 0) || q.IsCandidate(g, u, 2) {
		t.Error("IsCandidate inconsistent with Candidates")
	}
}

func TestValidate(t *testing.T) {
	q := New()
	if q.Validate() == nil {
		t.Error("empty query must not validate")
	}
	a := q.AddNode("A")
	b := q.AddNode("B")
	q.AddEdge(a, b, 1)
	q.Focus = a
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	past := int64(math.MaxInt32) + 1 // with a 32-bit int it wraps negative: refused all the same
	q.Edges[0].Bound = int(past)
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "edge 0") {
		t.Errorf("bound past math.MaxInt32: %v, want a refusal naming edge 0", err)
	}
	q.Edges[0].Bound = 1
	q.Focus = 7
	if q.Validate() == nil {
		t.Error("out-of-range focus must not validate")
	}
	q.Focus = a
	q.Edges = append(q.Edges, Edge{From: a, To: a, Bound: 1})
	if q.Validate() == nil {
		t.Error("self-loop must not validate")
	}
	q.Edges = q.Edges[:1]
	for _, c := range []graph.Value{graph.N(math.NaN()), graph.N(math.Inf(1)), graph.N(math.Inf(-1)), {Kind: 7, Str: "x"}} {
		q.Nodes[b].Literals = []Literal{{Attr: "x", Op: graph.LE, Val: c}}
		if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Errorf("constant %#v: %v, want a refusal naming node 1", c, err)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	q := New()
	u := q.AddNode("A", Literal{Attr: "x", Op: graph.EQ, Val: graph.N(1)})
	v := q.AddNode("B")
	q.AddEdge(u, v, 2)
	q.Focus = u

	c := q.Clone()
	c.Nodes[0].Literals[0].Val = graph.N(99)
	c.Edges[0].Bound = 3
	c.AddNode("C")

	if !q.Nodes[0].Literals[0].Val.Equal(graph.N(1)) {
		t.Error("clone shares literal storage")
	}
	if q.Edges[0].Bound != 2 {
		t.Error("clone shares edge storage")
	}
	if len(q.Nodes) != 2 {
		t.Error("clone shares node storage")
	}
}

// TestPatternDist: FocusDist sums bounds along the shortest undirected
// path from the focus and leaves disconnected nodes Unreachable; on
// random small patterns, some with an edge removed as RmE removes one
// (the nodes stay), it equals a Floyd–Warshall reference.
func TestPatternDist(t *testing.T) {
	q := New()
	a := q.AddNode("A")
	b := q.AddNode("B")
	c := q.AddNode("C")
	d := q.AddNode("D")
	q.AddEdge(a, b, 2)
	q.AddEdge(b, c, 1)
	q.Focus = c
	if got, want := q.FocusDist(nil), []int{3, 1, 0, graph.Unreachable}; !slices.Equal(got, want) {
		t.Errorf("FocusDist = %v, want %v (bounds summed, direction ignored)", got, want)
	}
	q.Focus = d
	if got, want := q.FocusDist(make([]int, 9)), []int{graph.Unreachable, graph.Unreachable, graph.Unreachable, 0}; !slices.Equal(got, want) {
		t.Errorf("FocusDist from an isolated focus = %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(5))
	var dst []int
	disconnected := 0
	for i := 0; i < 500; i++ {
		q := New()
		n := 1 + rng.Intn(6)
		for j := 0; j < n; j++ {
			q.AddNode("")
		}
		for j := rng.Intn(2 * n); j > 0 && n > 1; j-- {
			from := NodeID(rng.Intn(n))
			if to := NodeID(rng.Intn(n)); to != from {
				q.AddEdge(from, to, 1+rng.Intn(4))
			}
		}
		if len(q.Edges) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(q.Edges))
			q.Edges = append(q.Edges[:k:k], q.Edges[k+1:]...)
		}
		q.Focus = NodeID(rng.Intn(n))
		dst = q.FocusDist(dst)
		want := floydWarshall(q)[q.Focus]
		if !slices.Equal(dst, want) {
			t.Fatalf("%s: FocusDist = %v, Floyd–Warshall %v", q, dst, want)
		}
		if slices.Contains(want, graph.Unreachable) {
			disconnected++
		}
	}
	if disconnected == 0 {
		t.Error("no pattern left a node disconnected: Unreachable was never checked")
	}
}

// floydWarshall returns every pair's undirected bound-weighted distance,
// graph.Unreachable for pairs no path joins.
func floydWarshall(q *Query) [][]int {
	n := len(q.Nodes)
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = graph.Unreachable
			}
		}
	}
	for _, e := range q.Edges {
		d[e.From][e.To] = min(d[e.From][e.To], e.Bound)
		d[e.To][e.From] = min(d[e.To][e.From], e.Bound)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k] != graph.Unreachable && d[k][j] != graph.Unreachable && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestShape(t *testing.T) {
	star := New()
	c := star.AddNode("C")
	for i := 0; i < 3; i++ {
		star.AddEdge(c, star.AddNode("L"), 1)
	}
	if star.Shape() != TopoStar {
		t.Errorf("star classified as %v", star.Shape())
	}

	chainQ := New()
	a := chainQ.AddNode("A")
	b := chainQ.AddNode("B")
	cc := chainQ.AddNode("C")
	d := chainQ.AddNode("D")
	chainQ.AddEdge(a, b, 1)
	chainQ.AddEdge(b, cc, 1)
	chainQ.AddEdge(cc, d, 1)
	if chainQ.Shape() != TopoTree {
		t.Errorf("chain classified as %v", chainQ.Shape())
	}

	cyc := New()
	x := cyc.AddNode("X")
	y := cyc.AddNode("Y")
	z := cyc.AddNode("Z")
	cyc.AddEdge(x, y, 1)
	cyc.AddEdge(y, z, 1)
	cyc.AddEdge(z, x, 1)
	if cyc.Shape() != TopoCyclic {
		t.Errorf("triangle classified as %v", cyc.Shape())
	}

	single := New()
	single.AddNode("S")
	if single.Shape() != TopoSingleton {
		t.Errorf("singleton classified as %v", single.Shape())
	}

	// A 2-edge star is also a chain; the classifier must prefer star.
	twoStar := New()
	h := twoStar.AddNode("H")
	twoStar.AddEdge(h, twoStar.AddNode("L"), 1)
	twoStar.AddEdge(twoStar.AddNode("L"), h, 1)
	if twoStar.Shape() != TopoStar {
		t.Errorf("2-edge star classified as %v", twoStar.Shape())
	}
}

func TestKey(t *testing.T) {
	build := func(bound int, price float64) *Query {
		q := New()
		u := q.AddNode("A",
			Literal{Attr: "p", Op: graph.GE, Val: graph.N(price)},
			Literal{Attr: "q", Op: graph.EQ, Val: graph.S("x")})
		v := q.AddNode("B")
		q.AddEdge(u, v, bound)
		q.Focus = u
		return q
	}
	if build(1, 5).Key() != build(1, 5).Key() {
		t.Error("identical queries must share keys")
	}
	if build(1, 5).Key() == build(2, 5).Key() {
		t.Error("bound change must change key")
	}
	if build(1, 5).Key() == build(1, 6).Key() {
		t.Error("literal change must change key")
	}
	// Literal order must not matter.
	q1 := New()
	u1 := q1.AddNode("A",
		Literal{Attr: "a", Op: graph.EQ, Val: graph.N(1)},
		Literal{Attr: "b", Op: graph.EQ, Val: graph.N(2)})
	q1.Focus = u1
	q2 := New()
	u2 := q2.AddNode("A",
		Literal{Attr: "b", Op: graph.EQ, Val: graph.N(2)},
		Literal{Attr: "a", Op: graph.EQ, Val: graph.N(1)})
	q2.Focus = u2
	if q1.Key() != q2.Key() {
		t.Error("literal order must not affect the key")
	}
}

// TestNodeSigSortsWithoutAllocating: a node listing its literals out of
// Compare order is signed in Compare order, and the sort allocates
// nothing when the destination has room.
func TestNodeSigSortsWithoutAllocating(t *testing.T) {
	b := Literal{Attr: "b", Op: graph.EQ, Val: graph.N(2)}
	a := Literal{Attr: "a", Op: graph.EQ, Val: graph.S("x")}
	n, sorted := Node{Label: "A", Literals: []Literal{b, a}}, Node{Label: "A", Literals: []Literal{a, b}}
	dst := make([]byte, 0, 256)
	if got, want := AppendNodeSig(dst, &n), AppendNodeSig(nil, &sorted); !bytes.Equal(got, want) {
		t.Fatalf("signature %q, in Compare order %q", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { dst = AppendNodeSig(dst[:0], &n) }); allocs != 0 {
		t.Errorf("AppendNodeSig of an out-of-order node allocates %v times", allocs)
	}
}

// TestKeyAndLiteralGolden pins two byte formats. Literal.String is what
// explanations and the benchmark's rendered operators print: the expected
// strings are what the fmt-based renderer printed before it was rebuilt on
// strconv. Key is the identity the chase deduplicates rewrites by and the
// benchmark hashes into answers_sha256: uvarint counts and node ids,
// length-prefixed strings, one byte per operator and kind, a Number's
// eight float bits big-endian.
func TestKeyAndLiteralGolden(t *testing.T) {
	lits := []struct {
		l    Literal
		want string
	}{
		{Literal{Attr: "Age", Op: graph.GE, Val: graph.N(40)}, "Age >= 40"},
		{Literal{Attr: "p", Op: graph.LT, Val: graph.N(math.NaN())}, "p < NaN"},
		{Literal{Attr: "z", Op: graph.EQ, Val: graph.N(math.Copysign(0, -1))}, "z = -0"},
		{Literal{Attr: "r", Op: graph.LE, Val: graph.N(1e21)}, "r <= 1e+21"},
		{Literal{Attr: "r", Op: graph.GT, Val: graph.N(math.Inf(-1))}, "r > -Inf"},
		{Literal{Attr: "full name", Op: graph.EQ, Val: graph.S("Ada  Lovelace ")}, "full name = Ada  Lovelace "},
		{Literal{Attr: "", Op: graph.EQ, Val: graph.S("")}, " = "},
		{Literal{Attr: "a", Op: graph.Op(9), Val: graph.S("%d")}, "a Op(9) %d"},
	}
	for _, tc := range lits {
		if got := tc.l.String(); got != tc.want {
			t.Errorf("Literal.String() = %q, want %q", got, tc.want)
		}
		if got, ref := tc.l.String(), fmt.Sprintf("%s %s %s", tc.l.Attr, tc.l.Op, tc.l.Val); got != ref {
			t.Errorf("Literal.String() = %q, fmt renders %q", got, ref)
		}
	}

	q := New()
	a := q.AddNode("Person", lits[5].l, lits[1].l, lits[0].l)
	b := q.AddNode("", lits[2].l)
	c := q.AddNode("City of {x}|y")
	for i := 0; i < 8; i++ {
		q.AddNode("pad")
	}
	d := q.AddNode("Last") // id 11: two digits
	q.AddEdge(d, a, 12)
	q.AddEdge(b, c, 3)
	q.AddEdge(b, a, 1)
	q.Focus = d
	const pad = "\x03pad\x00"
	const want = "\x0b\x0c" + // focus 11, 12 nodes
		"\x06Person\x03" + // literals in Compare order, not as listed
		"\x03Age\x04\x00\x40\x44\x00\x00\x00\x00\x00\x00" +
		"\x09full name\x00\x01\x0eAda  Lovelace " +
		"\x01p\x01\x00\x7f\xf8\x00\x00\x00\x00\x00\x01" +
		"\x00\x01" + "\x01z\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00" + // the wildcard label, z = -0
		"\x0dCity of {x}|y\x00" +
		pad + pad + pad + pad + pad + pad + pad + pad +
		"\x04Last\x00" +
		"\x01\x00\x01" + "\x01\x02\x03" + "\x0b\x00\x0c" // edges by (from, to, bound)
	if got := q.Key(); got != want {
		t.Errorf("Key() =\n%q\nwant\n%q", got, want)
	}
}

func TestAccessors(t *testing.T) {
	q := New()
	a := q.AddNode("A", Literal{Attr: "x", Op: graph.GE, Val: graph.N(1)})
	b := q.AddNode("B")
	c := q.AddNode("C")
	q.AddEdge(a, b, 1)
	q.AddEdge(c, a, 2)
	q.Focus = a

	if q.FindEdge(a, b) != 0 || q.FindEdge(b, a) != -1 || q.FindEdge(c, a) != 1 {
		t.Error("FindEdge wrong")
	}
	if q.FindLiteral(a, "x", graph.GE) != 0 || q.FindLiteral(a, "x", graph.LE) != -1 {
		t.Error("FindLiteral wrong")
	}
	if !q.HasLiteral(a, Literal{Attr: "x", Op: graph.GE, Val: graph.N(1)}) {
		t.Error("HasLiteral wrong")
	}
	if got := q.Neighbors(a); len(got) != 2 {
		t.Errorf("Neighbors(a) = %v", got)
	}
	if got := q.IncidentEdges(a); len(got) != 2 {
		t.Errorf("IncidentEdges(a) = %v", got)
	}
	if q.Size() != 3+2+1 {
		t.Errorf("Size = %d, want 6", q.Size())
	}
}

func TestQueryJSONRoundtrip(t *testing.T) {
	q := New()
	u := q.AddNode("Cellphone",
		Literal{Attr: "Price", Op: graph.GE, Val: graph.N(840)},
		Literal{Attr: "Brand", Op: graph.EQ, Val: graph.S("Samsung")})
	v := q.AddNode("Carrier")
	q.AddEdge(v, u, 1)
	q.Focus = u

	var buf bytes.Buffer
	if err := q.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	q2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if q.Key() != q2.Key() {
		t.Errorf("roundtrip changed the query:\n%s\nvs\n%s", q.Key(), q2.Key())
	}
}

func TestQueryJSONErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"focus":0,"nodes":[],"edges":[]}`, // empty
		`{"focus":0,"nodes":[{"label":"A","literals":[{"attr":"x","op":"!!","value":1}]}],"edges":[]}`,
		`{"focus":0,"nodes":[{"label":"A","literals":[{"attr":"x","op":"=","value":[1]}]}],"edges":[]}`,
		`{"focus":5,"nodes":[{"label":"A"}],"edges":[]}`, // bad focus
	}
	for _, s := range bad {
		if _, err := ReadJSON(bytes.NewBufferString(s)); err == nil {
			t.Errorf("ReadJSON(%q) should fail", s)
		}
	}
}
