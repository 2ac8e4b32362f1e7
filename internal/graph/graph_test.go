package graph

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// chain builds 0 → 1 → … → n-1.
func chain(n int) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("N", map[string]Value{"idx": N(float64(i))})
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), "next")
	}
	return MustBuild(b)
}

// randomGraph adds a seeded random directed graph to a new builder.
func randomGraph(n, m int, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	gb := NewBuilder()
	labels := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		gb.AddNode(labels[rng.Intn(len(labels))], map[string]Value{
			"x": N(float64(rng.Intn(10))),
			"s": S(labels[rng.Intn(len(labels))]),
		})
	}
	for i := 0; i < m; i++ {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a != b {
			gb.AddEdge(a, b, "e")
		}
	}
	return gb
}

func TestGraphBasics(t *testing.T) {
	gb := NewBuilder()
	a := gb.AddNode("Person", map[string]Value{"Age": N(30), "Name": S("Ann")})
	b := gb.AddNode("Person", map[string]Value{"Age": N(40)})
	c := gb.AddNode("City", nil)
	gb.AddEdge(a, c, "lives")
	gb.AddEdge(b, c, "lives")
	g := MustBuild(gb)

	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("size = (%d,%d), want (3,2)", g.NumNodes(), g.NumEdges())
	}
	if g.Label(a) != "Person" || g.Label(c) != "City" {
		t.Error("labels wrong")
	}
	if v, ok := g.Attr(a, "Age"); !ok || !v.Equal(N(30)) {
		t.Error("Attr(a, Age) wrong")
	}
	if _, ok := g.Attr(a, "Height"); ok {
		t.Error("missing attribute should miss")
	}
	if _, ok := g.Attr(c, "Age"); ok {
		t.Error("attr on attrless node should miss")
	}
	if len(g.NodesByLabel("Person")) != 2 {
		t.Error("NodesByLabel(Person) wrong")
	}
	if len(g.NodesByLabel("")) != 3 {
		t.Error("wildcard label should list all nodes")
	}
	if g.NodesByLabel("Country") != nil {
		t.Error("unknown label should be empty")
	}
	if g.Degree(c) != 2 || g.Degree(a) != 1 {
		t.Error("degrees wrong")
	}
	if len(g.Out(a)) != 1 || g.Out(a)[0].To != c {
		t.Error("out adjacency wrong")
	}
	if len(g.In(c)) != 2 {
		t.Error("in adjacency wrong")
	}
}

// TestBuildDetachesBuilder: what is added to a builder after Build
// reaches neither the built graph nor its interners, and goes into the
// next Build alone.
func TestBuildDetachesBuilder(t *testing.T) {
	b := randomGraph(30, 60, 5)
	g1 := MustBuild(b)
	before := snapBytes(t, g1, nil)
	x := b.AddNode("Fresh", map[string]Value{"x": N(1), "new": S("v")})
	y := b.AddNode("A", nil)
	b.AddEdge(x, y, "late")
	g2 := MustBuild(b)
	if !bytes.Equal(snapBytes(t, g1, nil), before) {
		t.Fatal("adding to the builder after Build changed the built graph")
	}
	if x != 0 || y != 1 || g2.NumNodes() != 2 || g2.NumEdges() != 1 || g2.Label(x) != "Fresh" || g2.Out(x)[0].To != y {
		t.Fatalf("second graph = %v, want only the two nodes and one edge added after the first Build", g2)
	}
	if g1.Labels == g2.Labels || g1.Attrs == g2.Attrs {
		t.Fatal("the two graphs share an interner")
	}
	if _, ok := g1.Labels.Lookup("Fresh"); ok {
		t.Fatal("a label added after Build reached the built graph's interner")
	}
}

func TestTupleSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := MustBuild(randomGraph(20, 30, seed))
		for i := 0; i < g.NumNodes(); i++ {
			tuple := g.Tuple(NodeID(i))
			for j := 1; j < len(tuple); j++ {
				if tuple[j-1].Attr >= tuple[j].Attr {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDistChain(t *testing.T) {
	g := chain(6)
	if d := g.Dist(0, 5, 10); d != 5 {
		t.Errorf("Dist(0,5) = %d, want 5", d)
	}
	if d := g.Dist(0, 5, 4); d != Unreachable {
		t.Errorf("bounded Dist should be unreachable, got %d", d)
	}
	if d := g.Dist(5, 0, 10); d != Unreachable {
		t.Errorf("reverse Dist on a directed chain should be unreachable, got %d", d)
	}
	if d := g.Dist(3, 3, 0); d != 0 {
		t.Errorf("Dist(v,v) = %d, want 0", d)
	}
}

// naiveDist is a reference implementation for property testing.
func naiveDist(g *Graph, from, to NodeID, dir Direction) int {
	dist := map[NodeID]int{from: 0}
	queue := []NodeID{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		var nbs []Edge
		if dir == Forward || dir == Both {
			nbs = append(nbs, g.Out(v)...)
		}
		if dir == Backward || dir == Both {
			nbs = append(nbs, g.In(v)...)
		}
		for _, e := range nbs {
			if _, seen := dist[e.To]; !seen {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	if d, ok := dist[to]; ok {
		return d
	}
	return Unreachable
}

// TestBallMatchesNaive cross-checks Ball against a reference BFS in all
// three directions.
func TestBallMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := MustBuild(randomGraph(25, 50, seed))
		for _, dir := range []Direction{Forward, Backward, Both} {
			src := NodeID(int(seed) % g.NumNodes())
			ball := g.Ball(src, 4, dir)
			seen := map[NodeID]int32{}
			for _, nd := range ball {
				if _, dup := seen[nd.V]; dup {
					t.Fatalf("seed %d: Ball yields duplicate node %d", seed, nd.V)
				}
				seen[nd.V] = nd.D
			}
			for v := 0; v < g.NumNodes(); v++ {
				want := naiveDist(g, src, NodeID(v), dir)
				got, ok := seen[NodeID(v)]
				switch {
				case want <= 4 && (!ok || int(got) != want):
					t.Fatalf("seed %d dir %d: Ball dist(%d→%d) = %v (ok=%v), want %d",
						seed, dir, src, v, got, ok, want)
				case want > 4 && ok:
					t.Fatalf("seed %d dir %d: Ball includes node beyond bound", seed, dir)
				}
			}
		}
	}
}

// TestDistMatchesNaive cross-checks the bounded Dist.
func TestDistMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := MustBuild(randomGraph(20, 40, seed))
		for a := 0; a < g.NumNodes(); a += 3 {
			for b := 0; b < g.NumNodes(); b += 3 {
				want := naiveDist(g, NodeID(a), NodeID(b), Forward)
				got := g.Dist(NodeID(a), NodeID(b), g.NumNodes())
				if got != want {
					t.Fatalf("seed %d: Dist(%d,%d) = %d, want %d", seed, a, b, got, want)
				}
			}
		}
	}
}

func TestBallFirstEntryIsOrigin(t *testing.T) {
	g := chain(4)
	ball := g.Ball(1, 2, Forward)
	if len(ball) == 0 || ball[0].V != 1 || ball[0].D != 0 {
		t.Errorf("Ball must start with (origin, 0): %v", ball)
	}
}

func TestDiameter(t *testing.T) {
	g := chain(7)
	if d := g.Diameter(); d != 6 {
		t.Errorf("chain diameter = %d, want 6", d)
	}
	// Cached value survives repeated calls.
	if d := g.Diameter(); d != 6 {
		t.Errorf("cached diameter = %d, want 6", d)
	}
	if d := MustBuild(NewBuilder()).Diameter(); d != 1 {
		t.Errorf("empty graph diameter = %d, want 1 (cost-normalization floor)", d)
	}
}

func TestActiveDomain(t *testing.T) {
	b := NewBuilder()
	b.AddNode("P", map[string]Value{"price": N(10), "tag": S("a")})
	b.AddNode("P", map[string]Value{"price": N(30), "tag": S("b")})
	b.AddNode("P", map[string]Value{"price": N(10), "tag": S("a")})
	g := MustBuild(b)

	d := g.ActiveDomain("price")
	if len(d.Values) != 2 {
		t.Fatalf("price domain = %v, want 2 distinct values", d.Values)
	}
	if d.Range() != 20 {
		t.Errorf("price range = %v, want 20", d.Range())
	}
	if d.Values[0] != N(10) || d.Values[1] != N(30) {
		t.Errorf("price domain = %v, want 10 30", d.Values)
	}
	if got := g.ActiveDomain("tag").Range(); got != 1 {
		t.Errorf("string attr range = %v, want fallback 1", got)
	}
	if got := g.ActiveDomain("missing"); len(got.Values) != 0 {
		t.Errorf("missing attribute domain should be empty")
	}
	// Domains must be sorted.
	for i := 1; i < len(d.Values); i++ {
		if d.Values[i-1].Compare(d.Values[i]) >= 0 {
			t.Error("domain values not sorted")
		}
	}
}

func TestJSONRoundtrip(t *testing.T) {
	g := MustBuild(randomGraph(15, 25, 99))
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip size mismatch: (%d,%d) vs (%d,%d)",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < g.NumNodes(); i++ {
		v := NodeID(i)
		if g.Label(v) != g2.Label(v) {
			t.Fatalf("label mismatch at %d", i)
		}
		for _, c := range g.Tuple(v) {
			name := g.Attrs.Name(c.Attr)
			got, ok := g2.Attr(v, name)
			if !ok || !got.Equal(g.Value(c)) {
				t.Fatalf("attr %q mismatch at node %d", name, i)
			}
		}
		if len(g.Out(v)) != len(g2.Out(v)) {
			t.Fatalf("out degree mismatch at %d", i)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"nodes":[{"id":1,"label":"A"}],"edges":[]}`,                     // non-dense ids
		`{"nodes":[{"id":0,"label":"A"}],"edges":[{"src":0,"dst":5}]}`,    // edge out of range
		`{"nodes":[{"id":0,"label":"A","attrs":{"x":[1,2]}}],"edges":[]}`, // bad attr type
	}
	// A null where a number is needed once read as 0.
	null := []string{
		`{"nodes":[{"id":0,"label":"A","attrs":{"x":null}}],"edges":[]}`,
		`{"nodes":[{"id":null,"label":"A"}],"edges":[]}`,
		`{"nodes":[{"id":0,"label":"A"}],"edges":[{"src":null,"dst":0}]}`,
		`{"nodes":[{"id":0,"label":"A"}],"edges":[{"src":0,"dst":null}]}`,
	}
	for _, s := range append(bad, null...) {
		for _, r := range []io.Reader{
			bytes.NewBufferString(s),
			iotest.OneByteReader(bytes.NewBufferString(s)),
		} {
			if _, err := ReadJSON(r); err == nil {
				t.Errorf("ReadJSON(%q) through %T should fail", s, r)
			}
		}
	}
	for _, s := range null {
		if _, err := ReadJSON(bytes.NewBufferString(s)); !errors.Is(err, errNull) {
			t.Errorf("ReadJSON(%q) = %v, want a null error", s, err)
		}
	}
}
