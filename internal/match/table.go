package match

import (
	"slices"
	"sync"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// StarTable is the materialization T_i(G) of one star query (§2.3): one
// row per center match, and per row one column for each star edge — the
// matches of the edge's other endpoint reachable within its bound — plus,
// when the star carries an augmented edge, a last column of the focus
// matches reachable within the augmented distance.
//
// The layout is flat and pointer-free, CSR over (row, column): centers
// holds the center matches in ascending order, cells is one arena of
// node ids, and off cuts it, so column c of row r is
// cells[off[r*width+c]:off[r*width+c+1]], ascending by id. A table costs
// 4 B per row and cell and one int per column; off is int so that no
// arena a slice can hold overflows it.
//
// Occurrences of the focus node are stored label-filtered only: Q-Chase
// rewrites modify focus predicates constantly, and keeping the focus
// columns literal-agnostic lets one materialized table serve every
// rewrite that differs only in focus literals (the incremental
// verification of §2.3). Readers apply the current focus literals.
//
// A table is immutable once built, so cached tables are safe for
// concurrent readers; the zero value is an empty table.
type StarTable struct {
	Star *StarQuery
	// ColSigs are the per-column structural signatures (direction,
	// bound, endpoint signature). A cached table may have been built
	// from a structurally equal query whose edges were ordered
	// differently; consumers map their star edges to table columns by
	// signature.
	ColSigs []string

	centers []graph.NodeID
	// width is the number of columns per row: len(Star.Edges), plus one
	// for the augmented column.
	width int
	off   []int
	cells []graph.NodeID
	// focus lists, ascending and without repeats, the nodes at a focus
	// position of some row: centers itself when the focus is the center,
	// else the union of the columns that hold focus matches. Unused when
	// the star is disconnected from the focus.
	focus []graph.NodeID
}

// NumRows returns the number of center matches.
func (t *StarTable) NumRows() int { return len(t.centers) }

// Center returns the center match of row r.
func (t *StarTable) Center(r int) graph.NodeID { return t.centers[r] }

// Row returns the row of center match v, if it has one.
func (t *StarTable) Row(v graph.NodeID) (r int, ok bool) {
	return slices.BinarySearch(t.centers, v)
}

// Col returns column c of row r, ascending by id: c indexes the star
// edges the table was built from (see ColSigs), and c == len(Star.Edges)
// is the augmented column of a star that has one. The caller must not
// mutate it.
func (t *StarTable) Col(r, c int) []graph.NodeID {
	i := r*t.width + c
	return t.cells[t.off[i]:t.off[i+1]]
}

// buildStarTable materializes star s of res's query over g: one row per
// center candidate whose every star edge has at least one reachable
// candidate of the other endpoint. Focus positions are filtered by label
// only (see StarTable), the others by their node's candidate predicate.
func buildStarTable(g *graph.Graph, res *Result, s *StarQuery) *StarTable {
	q := res.Query
	t, sc := newStarTable(s)
	check := func(u query.NodeID) *query.NodeCheck {
		if u == q.Focus {
			return &res.Pat.Nodes[u].Label
		}
		return &res.Pat.Nodes[u].Check
	}
	centerCheck := check(s.Center)

	// The center's candidates, ascending: its by-label run, filtered below
	// by its literals unless it is the focus.
	centerCands := g.NodesByLabel(q.Nodes[s.Center].Label)

	maxOut, maxIn := 0, 0
	for _, e := range s.Edges {
		if e.Out && e.Bound > maxOut {
			maxOut = e.Bound
		}
		if !e.Out && e.Bound > maxIn {
			maxIn = e.Bound
		}
	}

	// column appends the nodes within bound hops in ball that pass check
	// as the next column of the arena, and reports whether it holds any.
	column := func(ball []graph.NodeDist, bound int, check *query.NodeCheck) bool {
		start := len(t.cells)
		for _, nd := range ball {
			if nd.D > 0 && int(nd.D) <= bound && check.Candidate(g, nd.V) {
				t.cells = append(t.cells, nd.V)
			}
		}
		slices.Sort(t.cells[start:])
		t.off = append(t.off, len(t.cells))
		return len(t.cells) > start
	}

	// A build visits a hundred-odd center candidates whose balls hold a
	// handful of nodes each and are dropped once scanned: one traverser
	// for all of them, so that a ball costs its traversal and nothing else.
	tr := g.Traverser()
	defer tr.Release()
	for _, vc := range centerCands {
		if !centerCheck.Candidate(g, vc) {
			continue
		}
		var ballOut, ballIn []graph.NodeDist
		if maxOut > 0 {
			ballOut = tr.Ball(vc, maxOut, graph.Forward)
		}
		if maxIn > 0 {
			ballIn = tr.Ball(vc, maxIn, graph.Backward)
		}
		// A center match needs every star edge matched and, under an
		// augmented edge, a focus candidate nearby; a row that fails at
		// any column rolls the arena back to these marks.
		nOff, nCells := len(t.off), len(t.cells)
		ok := true
		for _, e := range s.Edges {
			ball := ballOut
			if !e.Out {
				ball = ballIn
			}
			if ok = column(ball, e.Bound, check(e.Other)); !ok {
				break
			}
		}
		if ok && t.augmented() {
			ok = column(tr.Ball(vc, s.AugDist, graph.Both), s.AugDist, check(q.Focus))
		}
		if !ok {
			t.off, t.cells = t.off[:nOff], t.cells[:nCells]
			continue
		}
		t.centers = append(t.centers, vc)
	}
	t.finish(q, sc)
	return t
}

// tableScratch is the storage a table grows its arenas and focus list
// in while it is built, borrowed from tableScratches: a table is copied
// out of it at its exact size once its rows are in (finish), so the
// growth of one build is reused by the next instead of left to the GC.
type tableScratch struct {
	centers, cells, focus []graph.NodeID
	off                   []int
}

var tableScratches = sync.Pool{New: func() any { return new(tableScratch) }}

// newStarTable returns the empty table of star s, ready for rows, and
// the scratch its arenas grow in until finish: its width counts the
// augmented column when the star has one.
func newStarTable(s *StarQuery) (*StarTable, *tableScratch) {
	sc := tableScratches.Get().(*tableScratch)
	t := &StarTable{Star: s, width: len(s.Edges),
		centers: sc.centers[:0], cells: sc.cells[:0], off: append(sc.off[:0], 0)}
	if !s.HasFocus && s.AugDist > 0 {
		t.width++
	}
	return t, sc
}

// augmented reports whether the table's last column is the augmented one.
func (t *StarTable) augmented() bool { return t.width > len(t.Star.Edges) }

// finish is the common tail of buildStarTable and deriveStarTable, run
// once the rows are in: it copies the arenas out of the scratch at their
// exact size (tables outlive the build in the cache) and returns the
// scratch, lists the focus positions and signs the columns.
func (t *StarTable) finish(q *query.Query, sc *tableScratch) {
	s := t.Star
	sc.centers, sc.off, sc.cells = t.centers, t.off, t.cells
	t.centers, t.off, t.cells = exact(t.centers), exact(t.off), exact(t.cells)
	if s.Center == q.Focus {
		t.focus = t.centers
	} else {
		// The columns holding focus matches: the star edges whose other
		// endpoint is the focus, else the augmented column.
		focus := sc.focus[:0]
		for r := range t.centers {
			for c, e := range s.Edges {
				if e.Other == q.Focus {
					focus = append(focus, t.Col(r, c)...)
				}
			}
			if t.augmented() {
				focus = append(focus, t.Col(r, len(s.Edges))...)
			}
		}
		slices.Sort(focus)
		t.focus = exact(slices.Compact(focus))
		sc.focus = focus
	}
	tableScratches.Put(sc)
	t.ColSigs = make([]string, len(s.Edges))
	for i, e := range s.Edges {
		t.ColSigs[i] = edgeSig(q, e)
	}
}

// exact returns a copy of s of exactly its length, nil when s is empty,
// so that no table keeps a scratch array alive.
func exact[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return append(make(S, 0, len(s)), s...)
}

// focusFree reports whether the star is disconnected from the focus: it
// then constrains its own nodes only and supports every focus candidate.
func (t *StarTable) focusFree() bool {
	return !t.Star.HasFocus && t.Star.AugDist == 0
}

// SupportsFocus reports whether v appears at a focus position of some
// row, which every focus match must. Focus positions are filtered by
// label only, so the caller vouches for v's literals (Match asks about
// candidates of the focus only).
func (t *StarTable) SupportsFocus(v graph.NodeID) bool {
	at := 0
	return t.supportsFocusFrom(v, &at)
}

// supportsFocusFrom is SupportsFocus for a caller asking about
// ascending nodes: *at is where the previous ask left off in the focus
// list (0 before the first), and the search covers only what lies past
// it.
func (t *StarTable) supportsFocusFrom(v graph.NodeID, at *int) bool {
	if t.focusFree() {
		return true
	}
	j, ok := slices.BinarySearch(t.focus[*at:], v)
	*at += j
	return ok
}

// Size returns the number of cells in the table, the |Q.S(G)| measure
// used in the delay-time analysis: one per row for its center, plus the
// entries of every column. The focus list is an index over those cells,
// not part of the measure, and is not counted: Size is not the table's
// memory footprint.
func (t *StarTable) Size() int {
	return len(t.centers) + len(t.cells)
}
