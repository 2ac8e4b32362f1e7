package match

import (
	"slices"

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

// buildStarTable materializes a star over g: one row per center
// candidate whose every star edge has at least one reachable candidate
// of the other endpoint. Focus positions are filtered by label only
// (see StarTable).
func buildStarTable(g *graph.Graph, q *query.Query, s *StarQuery) *StarTable {
	t := &StarTable{Star: s, width: len(s.Edges)}
	focusIsCenter := s.Center == q.Focus
	// focusCols are the columns holding focus matches: the star edges
	// whose other endpoint is the focus, else the augmented column.
	var focusCols []int
	for i, e := range s.Edges {
		if e.Other == q.Focus {
			focusCols = append(focusCols, i)
		}
	}
	hasAug := !s.HasFocus && s.AugDist > 0
	if hasAug {
		focusCols = append(focusCols, t.width)
		t.width++
	}
	// isCand filters a node for pattern node u via compiled predicates;
	// the focus is filtered by label only.
	focusLabel := q.Nodes[q.Focus].Label
	focusLabelID, focusLabelOK := g.Labels.Lookup(focusLabel)
	checks := make([]query.NodeCheck, len(q.Nodes))
	for u := range q.Nodes {
		checks[u] = q.Check(g, query.NodeID(u))
	}
	isCand := func(u query.NodeID, v graph.NodeID) bool {
		if u == q.Focus {
			return focusLabel == "" || (focusLabelOK && g.LabelID(v) == focusLabelID)
		}
		return checks[u].Candidate(g, v)
	}

	// Ascending either way: the by-label runs, or a filter of one.
	var centerCands []graph.NodeID
	if focusIsCenter {
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

	// column appends the candidates of pattern node u within bound hops
	// in ball as the next column of the arena, and reports whether it
	// holds any.
	column := func(ball []graph.NodeDist, bound int, u query.NodeID) bool {
		start := len(t.cells)
		for _, nd := range ball {
			if nd.D > 0 && int(nd.D) <= bound && isCand(u, nd.V) {
				t.cells = append(t.cells, nd.V)
			}
		}
		slices.Sort(t.cells[start:])
		t.off = append(t.off, len(t.cells))
		return len(t.cells) > start
	}

	t.off = append(t.off, 0)
	for _, vc := range centerCands {
		var ballOut, ballIn []graph.NodeDist
		if maxOut > 0 {
			ballOut = g.Ball(vc, maxOut, graph.Forward)
		}
		if maxIn > 0 {
			ballIn = g.Ball(vc, maxIn, graph.Backward)
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
			if ok = column(ball, e.Bound, e.Other); !ok {
				break
			}
		}
		if ok && hasAug {
			ok = column(g.Ball(vc, s.AugDist, graph.Both), s.AugDist, q.Focus)
		}
		if !ok {
			t.off, t.cells = t.off[:nOff], t.cells[:nCells]
			continue
		}
		t.centers = append(t.centers, vc)
	}
	// Tables outlive the build in the cache: drop the growth slack.
	t.centers, t.off, t.cells = slices.Clone(t.centers), slices.Clone(t.off), slices.Clone(t.cells)
	if focusIsCenter {
		t.focus = t.centers
	} else {
		var focus []graph.NodeID
		for r := range t.centers {
			for _, c := range focusCols {
				focus = append(focus, t.Col(r, c)...)
			}
		}
		slices.Sort(focus)
		t.focus = slices.Clone(slices.Compact(focus))
	}
	for _, e := range s.Edges {
		t.ColSigs = append(t.ColSigs, edgeSig(q, e))
	}
	return t
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
	if t.focusFree() {
		return true
	}
	_, ok := slices.BinarySearch(t.focus, v)
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
