package graph_test

import (
	"bytes"
	"math"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/graph"
)

// codesGraphs are the graphs the code column is checked on: a 1k graph
// of each dataset kind, one given both zeros, and one whose values hold
// "=" where KeyRanks renders "name=value".
func codesGraphs(t *testing.T) []namedGraph {
	t.Helper()
	var out []namedGraph
	for _, name := range datagen.AllDatasets() {
		g, err := datagen.Generate(name, 1000, 7)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedGraph{name, g})
	}
	zeros := graph.NewBuilder()
	for _, v := range []graph.Value{graph.N(0), graph.N(math.Copysign(0, -1)), graph.N(2), graph.S("0"), graph.N(0)} {
		zeros.AddNode("Z", map[string]graph.Value{"x": v, "y": graph.N(1)})
	}
	out = append(out, namedGraph{"zeros", graph.MustBuild(zeros)})
	eq := graph.NewBuilder()
	eq.AddNode("E", map[string]graph.Value{"kv": graph.S("=w"), "k": graph.S("v=w"), "j": graph.N(3)})
	eq.AddNode("E", map[string]graph.Value{"k": graph.S("u"), "j": graph.N(-1)})
	out = append(out, namedGraph{"equals-in-value", graph.MustBuild(eq)})
	return out
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// TestSnapshotCodesEqualBuilt: the code column a snapshot read hands the
// graph is the one a Builder codes from the graph's tuples, read back
// value by value, and the one the written graph holds, part for part,
// postings and KeyRanks included; so is the column a JSON load codes.
func TestSnapshotCodesEqualBuilt(t *testing.T) {
	for _, c := range codesGraphs(t) {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := g.WriteSnapshot(&buf, nil); err != nil {
				t.Fatal(err)
			}
			snap, err := graph.ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			read := snap.G.Codes()
			b := graph.NewBuilder()
			for a := int32(1); a < int32(snap.G.Attrs.Len()); a++ {
				b.Attrs.Intern(snap.G.Attrs.Name(a))
			}
			var tuple []graph.AttrValue
			for v := graph.NodeID(0); int(v) < snap.G.NumNodes(); v++ {
				tuple = tuple[:0]
				for _, cell := range snap.G.Tuple(v) {
					tuple = append(tuple, graph.AttrValue{Attr: cell.Attr, Val: snap.G.Value(cell)})
				}
				b.AddNodeTuple(snap.G.Label(v), tuple)
			}
			if msg := graph.CodesDiff(read, graph.MustBuild(b).Codes()); msg != "" {
				t.Fatalf("read column differs from the one its values build: %s", msg)
			}
			if msg := graph.CodesDiff(read, g.Codes()); msg != "" {
				t.Fatalf("read column differs from the written graph's: %s", msg)
			}
			var js bytes.Buffer
			if err := g.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			loaded, err := graph.ReadJSON(&js)
			if err != nil {
				t.Fatal(err)
			}
			if msg := graph.CodesDiff(loaded.Codes(), g.Codes()); msg != "" {
				t.Fatalf("JSON-loaded column differs from the written graph's: %s", msg)
			}
		})
	}
}

// TestEccentricityMatchesBall pins Diameter's sweep to the Ball-based one
// it replaced: the same distance and the same far node from every seed
// and every far node, so the same diameter.
func TestEccentricityMatchesBall(t *testing.T) {
	byBall := func(g *graph.Graph, v graph.NodeID) (int, graph.NodeID) {
		ball := g.Ball(v, g.NumNodes(), graph.Both)
		last := ball[len(ball)-1]
		return int(last.D), last.V
	}
	for _, name := range datagen.AllDatasets() {
		g, err := datagen.Generate(name, 1000, 7)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		want := 1
		for _, s := range []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)} {
			e1, far := g.Eccentricity(s)
			if we, wf := byBall(g, s); e1 != we || far != wf {
				t.Fatalf("%s: from %d: (%d, %d), by Ball (%d, %d)", name, s, e1, far, we, wf)
			}
			e2, far2 := g.Eccentricity(far)
			if we, wf := byBall(g, far); e2 != we || far2 != wf {
				t.Fatalf("%s: from %d: (%d, %d), by Ball (%d, %d)", name, far, e2, far2, we, wf)
			}
			want = max(want, e1, e2)
		}
		if got := g.Diameter(); got != want {
			t.Fatalf("%s: Diameter = %d, Ball-based double sweep %d", name, got, want)
		}
	}
}
