package exemplar_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
)

// TestEvalPostingsMatchScan holds NewEval, which reads each tuple
// pattern's candidates off the graph's value-code postings where it can,
// to NewScanEval, which scores every node: on the four dataset kinds and
// two crafted graphs, at θ ∈ {1, 0.9, 0.5}, every node's Matches, InRep
// and Cl (floats by bit pattern), RepNodes, and RepAmong against InRep
// and ClStar over every label's nodes. The exemplars are constant rows
// copied from nodes, single constant cells, a constant beside a variable
// or a wildcard, constants of an attribute the graph lacks, and
// variable-only and wildcard-only rows, which the postings cannot bound.
func TestEvalPostingsMatchScan(t *testing.T) {
	graphs := map[string]*graph.Graph{"crafted": craftedGraph()}
	names := []string{"crafted"}
	for _, kind := range datagen.AllDatasets() {
		g, err := datagen.Generate(kind, 600, 11)
		if err != nil {
			t.Fatal(err)
		}
		graphs[kind] = g
		names = append(names, kind)
	}
	bounded, scanned := 0, 0
	for _, name := range names {
		g := graphs[name]
		rng := rand.New(rand.NewSource(3))
		exemplars := postingsExemplars(t, g, rng)
		if name == "crafted" {
			exemplars = append(exemplars, craftedExemplars()...)
		}
		for ei, e := range exemplars {
			for _, theta := range []float64{1, 0.9, 0.5} {
				opts := exemplar.Options{Theta: theta, Lambda: 1}
				ev, err := exemplar.NewEval(g, e, opts)
				if err != nil {
					t.Fatal(err)
				}
				or, err := exemplar.NewScanEval(g, e, opts)
				if err != nil {
					t.Fatal(err)
				}
				if exemplar.PostingsBounded(g, e, theta) {
					bounded++
				} else {
					scanned++
				}
				for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
					if ev.Matches(v) != or.Matches(v) || ev.InRep(v) != or.InRep(v) ||
						math.Float64bits(ev.Cl(v)) != math.Float64bits(or.Cl(v)) {
						t.Fatalf("%s exemplar %d θ=%v node %d: Matches/InRep/Cl %v/%v/%v, scan %v/%v/%v", name, ei, theta, v,
							ev.Matches(v), ev.InRep(v), ev.Cl(v), or.Matches(v), or.InRep(v), or.Cl(v))
					}
				}
				if rep := ev.RepNodes(); !slices.Equal(rep, or.RepNodes()) {
					t.Fatalf("%s exemplar %d θ=%v: rep %v, scan %v", name, ei, theta, rep, or.RepNodes())
				}
				for l := 0; l < g.Labels.Len(); l++ {
					cands := g.NodesByLabel(g.Labels.Name(int32(l)))
					in, clStar := ev.RepAmong(cands)
					for i, v := range cands {
						if in[i] != or.InRep(v) {
							t.Fatalf("%s exemplar %d θ=%v: RepAmong says %v of node %d, scan %v", name, ei, theta, in[i], v, or.InRep(v))
						}
					}
					if math.Float64bits(clStar) != math.Float64bits(or.ClStar(cands)) {
						t.Fatalf("%s exemplar %d θ=%v label %d: RepAmong's cl* %v, scan's %v", name, ei, theta, l, clStar, or.ClStar(cands))
					}
				}
			}
		}
	}
	if bounded < 50 || scanned < 20 {
		t.Errorf("%d evaluations bounded by postings and %d scanned, want at least 50 and 20", bounded, scanned)
	}
}

// TestPostingsBoundScope pins which patterns the postings bound at
// θ = 1: constants do, with an absent attribute's constant bounding to
// nothing and a number of an attribute whose range overflows included;
// variable-only and wildcard-only rows, and a constant whose string
// other byte strings decode to, do not.
func TestPostingsBoundScope(t *testing.T) {
	g := craftedGraph()
	for _, tc := range []struct {
		name string
		row  exemplar.TuplePattern
		want bool
	}{
		{"number", exemplar.TuplePattern{"w": exemplar.C(graph.N(1000))}, true},
		{"string", exemplar.TuplePattern{"s": exemplar.C(graph.S("abc"))}, true},
		{"constant beside variable", exemplar.TuplePattern{"w": exemplar.C(graph.N(1000)), "s": exemplar.V("x")}, true},
		{"unknown attribute", exemplar.TuplePattern{"no-such-attr": exemplar.C(graph.N(1))}, true},
		{"variable only", exemplar.TuplePattern{"w": exemplar.V("x")}, false},
		{"wildcard only", exemplar.TuplePattern{"w": exemplar.W()}, false},
		{"replacement character", exemplar.TuplePattern{"s": exemplar.C(graph.S("a�b"))}, false},
		{"overflowing range", exemplar.TuplePattern{"inf": exemplar.C(graph.N(5))}, true},
	} {
		e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{tc.row}}
		if got := exemplar.PostingsBounded(g, e, 1); got != tc.want {
			t.Errorf("%s: bounded %v, want %v", tc.name, got, tc.want)
		}
	}
}

// craftedGraph holds the values the postings bound must not lose:
// numbers of w closer to 1000 than range(w)·2⁻⁵², which cellSim rounds
// to similarity 1, beside numbers just outside that; strings of s that
// decode to the same runes ("\xff" and "�"); and an attribute inf
// whose range overflows to +Inf (values ±MaxFloat64).
func craftedGraph() *graph.Graph {
	b := graph.NewBuilder()
	const c, spread = 1000.0, 1e6
	ws := []float64{0, spread, c, math.Nextafter(c, 2000), math.Nextafter(c, 0),
		c + 3e-13, c - 3e-13, c + spread*0x1p-50, c - spread*0x1p-50, c + 1, c - 1e-3}
	ss := []string{"abc", "abd", "\xff", "�", "a\xffb", "a�b", "", "ab"}
	infs := []float64{-math.MaxFloat64, 0, 5, math.MaxFloat64}
	for i := 0; i < 60; i++ {
		attrs := map[string]graph.Value{"w": graph.N(ws[i%len(ws)])}
		if i%3 != 0 {
			attrs["s"] = graph.S(ss[i%len(ss)])
		}
		if i%4 != 1 {
			attrs["inf"] = graph.N(infs[i%len(infs)])
		}
		b.AddNode([]string{"A", "B"}[i%2], attrs)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// craftedExemplars ask craftedGraph for the values next to its constants.
func craftedExemplars() []*exemplar.Exemplar {
	var out []*exemplar.Exemplar
	rows := []exemplar.TuplePattern{
		{"w": exemplar.C(graph.N(1000))},
		{"w": exemplar.C(graph.N(math.Nextafter(1000, 0)))},
		{"w": exemplar.C(graph.N(1000)), "s": exemplar.C(graph.S("abc"))},
		{"s": exemplar.C(graph.S("�"))},
		{"s": exemplar.C(graph.S("\xff"))},
		{"s": exemplar.C(graph.S("a�b")), "w": exemplar.W()},
		{"inf": exemplar.C(graph.N(5))},
		{"inf": exemplar.C(graph.N(math.MaxFloat64))},
		{"inf": exemplar.C(graph.N(-math.MaxFloat64)), "w": exemplar.C(graph.N(1000))},
		{"inf": exemplar.C(graph.N(math.MaxFloat64 / 2))},
		{"w": exemplar.C(graph.S("1000"))},
	}
	for _, r := range rows {
		out = append(out, &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{r}})
	}
	return append(out, &exemplar.Exemplar{Tuples: rows[:3]})
}

// postingsExemplars draws a graph's exemplars: constant rows copied from
// random nodes, and per random node cell a constant alone, beside a
// variable, beside a wildcard of an attribute no node carries, and
// beside a constant of such an attribute; a variable alone; a wildcard
// alone; and the rows TestEvalMatchesOracle asks about, constraints
// included.
func postingsExemplars(t *testing.T, g *graph.Graph, rng *rand.Rand) []*exemplar.Exemplar {
	t.Helper()
	n := g.NumNodes()
	out := []*exemplar.Exemplar{
		exemplar.FromEntities(g, []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}, nil),
	}
	row := func(ts ...exemplar.TuplePattern) {
		out = append(out, &exemplar.Exemplar{Tuples: ts})
	}
	for len(out) < 25 {
		v := graph.NodeID(rng.Intn(n))
		tuple := g.Tuple(v)
		if len(tuple) < 2 {
			continue
		}
		i := rng.Intn(len(tuple))
		a, b := tuple[i], tuple[(i+1)%len(tuple)]
		an, bn := g.Attrs.Name(a.Attr), g.Attrs.Name(b.Attr)
		row(exemplar.TuplePattern{an: exemplar.C(g.Value(a))})
		row(exemplar.TuplePattern{an: exemplar.C(g.Value(a)), bn: exemplar.V("x")})
		row(exemplar.TuplePattern{an: exemplar.C(g.Value(a)), "no-such-attr": exemplar.W()})
		row(exemplar.TuplePattern{an: exemplar.C(g.Value(a)), "no-such-attr": exemplar.C(g.Value(b))})
		row(exemplar.TuplePattern{an: exemplar.V("x")})
		row(exemplar.TuplePattern{bn: exemplar.W()})
	}
	return append(out, oracleExemplars(t, g, rng)...)
}
