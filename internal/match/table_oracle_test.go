package match_test

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/query"
)

// This file keeps the star-table builder and reader as they stood before
// the flat layout — one struct per row, one slice of (match, distance)
// entries per cell, a map from center to row — verbatim apart from names
// and receivers. The flat table must hold the same rows, the same cells
// in the same order, and support the same focus candidates.

type oracleEntry struct {
	V    graph.NodeID
	Dist int32
}

type oracleRow struct {
	Center graph.NodeID
	Nbrs   [][]oracleEntry // parallel to StarQuery.Edges
	Aug    []oracleEntry   // non-nil only when the star has an augmented edge
}

type oracleTable struct {
	Star          *match.StarQuery
	Rows          []oracleRow
	focusIsCenter bool
	focusEdges    []int
	rowOf         map[graph.NodeID]int
}

func (t *oracleTable) Row(v graph.NodeID) *oracleRow {
	if i, ok := t.rowOf[v]; ok {
		return &t.Rows[i]
	}
	return nil
}

func buildOracleTable(g *graph.Graph, q *query.Query, s *match.StarQuery) *oracleTable {
	t := &oracleTable{Star: s, focusIsCenter: s.Center == q.Focus}
	for i, e := range s.Edges {
		if e.Other == q.Focus {
			t.focusEdges = append(t.focusEdges, i)
		}
	}
	// isCand filters a node for pattern node u by the by-value reference
	// (Query.IsCandidate); the focus is filtered by label only.
	focusLabel := q.Nodes[q.Focus].Label
	isCand := func(u query.NodeID, v graph.NodeID) bool {
		if u == q.Focus {
			return focusLabel == "" || g.Label(v) == focusLabel
		}
		return q.IsCandidate(g, u, v)
	}

	var centerCands []graph.NodeID
	if t.focusIsCenter {
		centerCands = g.NodesByLabel(focusLabel)
	} else {
		centerCands = q.Candidates(g, s.Center)
	}

	maxOut, maxIn := 0, 0
	for _, e := range s.Edges {
		if e.Out && e.Bound > maxOut {
			maxOut = e.Bound
		}
		if !e.Out && e.Bound > maxIn {
			maxIn = e.Bound
		}
	}

rows:
	for _, vc := range centerCands {
		var ballOut, ballIn []graph.NodeDist
		if maxOut > 0 {
			ballOut = g.Ball(vc, maxOut, graph.Forward)
		}
		if maxIn > 0 {
			ballIn = g.Ball(vc, maxIn, graph.Backward)
		}
		row := oracleRow{Center: vc, Nbrs: make([][]oracleEntry, len(s.Edges))}
		for i, e := range s.Edges {
			ball := ballOut
			if !e.Out {
				ball = ballIn
			}
			var entries []oracleEntry
			for _, nd := range ball {
				if nd.D == 0 || int(nd.D) > e.Bound {
					continue
				}
				if isCand(e.Other, nd.V) {
					entries = append(entries, oracleEntry{V: nd.V, Dist: nd.D})
				}
			}
			if len(entries) == 0 {
				continue rows // center match requires every star edge matched
			}
			sort.Slice(entries, func(a, b int) bool { return entries[a].V < entries[b].V })
			row.Nbrs[i] = entries
		}
		if !s.HasFocus && s.AugDist > 0 {
			aug := g.Ball(vc, s.AugDist, graph.Both)
			for _, nd := range aug {
				if nd.D == 0 {
					continue
				}
				if isCand(q.Focus, nd.V) {
					row.Aug = append(row.Aug, oracleEntry{V: nd.V, Dist: nd.D})
				}
			}
			if len(row.Aug) == 0 {
				continue rows // no focus candidate near this center match
			}
			sort.Slice(row.Aug, func(a, b int) bool { return row.Aug[a].V < row.Aug[b].V })
		}
		t.Rows = append(t.Rows, row)
	}
	t.rowOf = make(map[graph.NodeID]int, len(t.Rows))
	for i := range t.Rows {
		t.rowOf[t.Rows[i].Center] = i
	}
	return t
}

func (t *oracleTable) FocusSupport(g *graph.Graph, q *query.Query) map[graph.NodeID]bool {
	s := t.Star
	if !s.HasFocus && s.AugDist == 0 {
		return nil
	}
	verdict := map[graph.NodeID]bool{}
	pass := func(v graph.NodeID) bool {
		if ok, seen := verdict[v]; seen {
			return ok
		}
		ok := q.IsCandidate(g, q.Focus, v)
		verdict[v] = ok
		return ok
	}
	support := map[graph.NodeID]bool{}
	for _, row := range t.Rows {
		switch {
		case t.focusIsCenter:
			if pass(row.Center) {
				support[row.Center] = true
			}
		case len(t.focusEdges) > 0:
			for _, ei := range t.focusEdges {
				for _, en := range row.Nbrs[ei] {
					if !support[en.V] && pass(en.V) {
						support[en.V] = true
					}
				}
			}
		default:
			for _, en := range row.Aug {
				if !support[en.V] && pass(en.V) {
					support[en.V] = true
				}
			}
		}
	}
	return support
}

func (t *oracleTable) Size() int {
	n := 0
	for _, r := range t.Rows {
		n++
		for _, col := range r.Nbrs {
			n += len(col)
		}
		n += len(r.Aug)
	}
	return n
}

func ids(es []oracleEntry) []graph.NodeID {
	out := make([]graph.NodeID, len(es))
	for i, e := range es {
		out[i] = e.V
	}
	return out
}

// tableShape is what a comparison saw, so the suites can insist their
// inputs contained what they claim to.
type tableShape struct{ rows, cells, augRows, rejected int }

// sameTable compares the flat table of star s with the oracle's, cell by
// cell, and every read the matcher makes of it.
func sameTable(t *testing.T, what string, g *graph.Graph, q *query.Query, s *match.StarQuery) tableShape {
	t.Helper()
	want := buildOracleTable(g, q, s)
	got := match.BuildStarTable(g, q, s)
	if got.NumRows() != len(want.Rows) {
		t.Fatalf("%s: %d rows, oracle has %d", what, got.NumRows(), len(want.Rows))
	}
	shape := tableShape{rows: len(want.Rows)}
	for r, row := range want.Rows {
		if got.Center(r) != row.Center {
			t.Fatalf("%s: row %d is center %d, oracle has %d", what, r, got.Center(r), row.Center)
		}
		if at, ok := got.Row(row.Center); !ok || at != r {
			t.Fatalf("%s: Row(%d) = %d, %v; it is row %d", what, row.Center, at, ok, r)
		}
		for c, col := range row.Nbrs {
			if !slices.Equal(got.Col(r, c), ids(col)) {
				t.Fatalf("%s: center %d column %d holds %v, oracle %v", what, row.Center, c, got.Col(r, c), ids(col))
			}
			shape.cells += len(col)
		}
		if row.Aug != nil {
			if !slices.Equal(got.Col(r, len(s.Edges)), ids(row.Aug)) {
				t.Fatalf("%s: center %d augmented column holds %v, oracle %v", what, row.Center, got.Col(r, len(s.Edges)), ids(row.Aug))
			}
			shape.augRows++
			shape.cells += len(row.Aug)
		}
	}
	// Row misses: every node that is not a center, ids past the graph too.
	for v := graph.NodeID(-1); int(v) <= g.NumNodes(); v++ {
		if _, ok := got.Row(v); ok != (want.Row(v) != nil) {
			t.Fatalf("%s: Row(%d) found = %v, oracle says %v", what, v, ok, !ok)
		}
	}
	if got.Size() != want.Size() {
		t.Fatalf("%s: Size() = %d, oracle %d", what, got.Size(), want.Size())
	}
	gs, ws := got.FocusSupport(g, q), want.FocusSupport(g, q)
	if (gs == nil) != (ws == nil) || !maps.Equal(gs, ws) {
		t.Fatalf("%s: FocusSupport has %d nodes (nil: %v), oracle %d (nil: %v)", what, len(gs), gs == nil, len(ws), ws == nil)
	}
	if len(got.ColSigs) != len(s.Edges) {
		t.Fatalf("%s: %d column signatures for %d star edges", what, len(got.ColSigs), len(s.Edges))
	}
	var cands int
	if s.Center == q.Focus {
		cands = len(g.NodesByLabel(q.Nodes[q.Focus].Label))
	} else {
		cands = len(q.Candidates(g, s.Center))
	}
	shape.rejected = cands - len(want.Rows)
	return shape
}

// TestFlatStarTableMatchesRowOracle compares every star of generated
// why-questions (the disturbed query and its ground truth) on instances
// of all four dataset kinds, then the hand-built shapes the sweep may
// not reach.
func TestFlatStarTableMatchesRowOracle(t *testing.T) {
	for _, dataset := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies, datagen.DatasetOffshore, datagen.DatasetProducts} {
		g, err := datagen.Generate(dataset, 1500, 23)
		if err != nil {
			t.Fatal(err)
		}
		m := match.NewMatcher(g, distindex.NewBFS(g), nil)
		rng := rand.New(rand.NewSource(31))
		var total tableShape
		instances := 0
		for tries := 0; instances < 12 && tries < 400; tries++ {
			inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
				Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2 + tries%2, MaxPredicates: 2, PathEdgeProb: 0.3},
				DisturbOps: 3,
				MaxTuples:  5,
			}, rng)
			if !ok {
				continue
			}
			instances++
			for qi, q := range []*query.Query{inst.Q, inst.Qstar} {
				for si, s := range match.Decompose(q) {
					sh := sameTable(t, fmt.Sprintf("%s instance %d query %d star %d", dataset, instances, qi, si), g, q, s)
					total.rows += sh.rows
					total.cells += sh.cells
					total.augRows += sh.augRows
					total.rejected += sh.rejected
				}
			}
		}
		if instances < 12 || total.rows == 0 || total.cells == 0 || total.rejected == 0 {
			t.Errorf("%s: %d instances, %+v — the sweep checks nothing", dataset, instances, total)
		}
	}

	// Hand-built: a chain a0 → b0 → c0 → d0 (and a1 → b1 with no c below
	// it, b2 → c2 with no d below it, a lone d3), attributes on the Bs.
	gb := graph.NewBuilder()
	node := func(label string, x float64) graph.NodeID {
		return gb.AddNode(label, map[string]graph.Value{"x": graph.N(x)})
	}
	a0, b0, c0, d0 := node("A", 0), node("B", 1), node("C", 0), node("D", 0)
	a1, b1 := node("A", 1), node("B", 2)
	b2, c2 := node("B", 1), node("C", 1)
	node("D", 3)
	for _, e := range [][2]graph.NodeID{{a0, b0}, {b0, c0}, {c0, d0}, {a1, b1}, {b2, c2}, {a0, b2}} {
		gb.AddEdge(e[0], e[1], "e")
	}
	g := mustBuild(gb)
	chain := func(labels ...string) *query.Query {
		q := query.New()
		prev := q.AddNode(labels[0])
		q.Focus = prev
		for _, l := range labels[1:] {
			next := q.AddNode(l)
			q.AddEdge(prev, next, 1)
			prev = next
		}
		return q
	}

	// The star centered at C of A→B→C→D does not touch the focus A: it
	// carries an augmented edge of distance 2.
	q := chain("A", "B", "C", "D")
	var aug *match.StarQuery
	for _, s := range match.Decompose(q) {
		if !s.HasFocus && s.AugDist > 0 {
			aug = s
		}
		sameTable(t, "chain", g, q, s)
	}
	if aug == nil {
		t.Fatal("the chain query decomposes into no star with an augmented edge")
	}
	if sh := sameTable(t, "augmented star", g, q, aug); sh.augRows == 0 || sh.rejected == 0 {
		t.Errorf("augmented star: %+v — want a row with an augmented column and a rejected center", sh)
	}

	// b1 passes its first column (a1 above it) and fails its last (no C
	// below it): the arena rolls back a column already written, between
	// the kept rows b0 and b2.
	q = chain("B", "A", "C")
	q.Edges[0].From, q.Edges[0].To = q.Edges[0].To, q.Edges[0].From // A → B
	q.Edges[1].From = 0                                             // B → C
	stars := match.Decompose(q)
	if len(stars) != 1 || len(stars[0].Edges) != 2 {
		t.Fatalf("want one two-edge star, got %d stars", len(stars))
	}
	if sh := sameTable(t, "rejected at the last column", g, q, stars[0]); sh.rows != 2 || sh.rejected != 1 {
		t.Errorf("rejected at the last column: %+v — want rows b0 and b2 kept, b1 rejected", sh)
	}

	// No center survives: an empty table.
	q = chain("D", "A")
	if sh := sameTable(t, "empty", g, q, match.Decompose(q)[0]); sh.rows != 0 {
		t.Errorf("empty: %+v — want no rows", sh)
	}

	// A wildcard center: every node is a candidate, in id order.
	q = chain("", "C")
	if sh := sameTable(t, "wildcard center", g, q, match.Decompose(q)[0]); sh.rows != 2 || sh.rejected != g.NumNodes()-2 {
		t.Errorf("wildcard center: %+v — want rows b0 and b2", sh)
	}
	// A wildcard center that is not the focus, with a literal.
	q = chain("C", "")
	q.Edges[0].From, q.Edges[0].To = q.Edges[0].To, q.Edges[0].From // * → C
	q.Nodes[1].Literals = []query.Literal{{Attr: "x", Op: graph.EQ, Val: graph.N(1)}}
	for _, s := range match.Decompose(q) {
		sameTable(t, "wildcard neighbour", g, q, s)
	}
}

// BenchmarkBuildStarTable times star-table construction over the stars of
// generated questions on the benchmark's graph (products, 2k nodes), as
// the searches meet it: each star with one literal added to one of its
// non-focus nodes, once built from the graph ("fresh") and once derived
// from the table of the star as it stood ("derive", the parent's result
// in hand). "fresh" also reports what a table keeps on the heap, in bytes
// per cell of Size(): every question's own stars are built once and held
// across a collection before the timed loops start.
func BenchmarkBuildStarTable(b *testing.B) {
	g, err := datagen.Generate(datagen.DatasetProducts, 2000, 7)
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(29))
	type star struct {
		q *query.Query
		s *match.StarQuery
	}
	var stars []star
	// tightened are the same stars with a literal added; parents[i] is the
	// evaluation of the question tightened[i] was rewritten from.
	var tightened []star
	var parents []*match.Result
	for len(stars) < 64 {
		inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
			Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
			DisturbOps: 3,
			MaxTuples:  5,
		}, rng)
		if !ok {
			continue
		}
		parent := m.Match(inst.Q)
		for _, inst2 := range parent.Stars {
			s := inst2.Star
			stars = append(stars, star{inst.Q, s})
			// The literal: an attribute value of a node the table holds at
			// a non-focus position, so the tightened star keeps a row.
			u, v := s.Center, graph.NodeID(-1)
			if inst2.Table.NumRows() > 0 {
				v = inst2.Table.Center(0)
				if u == inst.Q.Focus && len(s.Edges) > 0 {
					u, v = s.Edges[0].Other, inst2.Table.Col(0, 0)[0]
				}
			}
			if v < 0 || u == inst.Q.Focus || len(g.Tuple(v)) == 0 {
				continue
			}
			cell := g.Tuple(v)[0]
			q2 := inst.Q.Clone()
			q2.Nodes[u].Literals = append(q2.Nodes[u].Literals,
				query.Literal{Attr: g.Attrs.Name(cell.Attr), Op: graph.EQ, Val: g.Value(cell)})
			for _, s2 := range match.Decompose(q2) {
				if s2.Center == s.Center {
					tightened = append(tightened, star{q2, s2})
					parents = append(parents, parent)
				}
			}
		}
	}

	held := make([]*match.StarTable, 0, len(stars))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cells := 0
	for _, st := range stars {
		t := match.BuildStarTable(g, st.q, st.s)
		cells += t.Size()
		held = append(held, t)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perCell := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(cells)
	runtime.KeepAlive(held)

	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := tightened[i%len(tightened)]
			match.BuildStarTable(g, st.q, st.s)
		}
		b.ReportMetric(perCell, "B/cell")
	})
	b.Run("derive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := tightened[i%len(tightened)]
			if match.DeriveStarTable(g, parents[i%len(tightened)], st.q, st.s) == nil {
				b.Fatalf("star %d was not derived", i%len(tightened))
			}
		}
	})
}
