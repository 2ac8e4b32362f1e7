package match

import (
	"fmt"
	"slices"

	"wqe/internal/anscache"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// BuildStarTable and DeriveStarTable let the external table tests build
// and derive tables directly: they draw their queries from
// internal/datagen and their rewrites from internal/chase, which import
// this package. q is compiled as MatchFrom compiles it.
func BuildStarTable(g *graph.Graph, q *query.Query, s *StarQuery) *StarTable {
	return buildStarTable(g, compiled(g, q), s)
}

func DeriveStarTable(g *graph.Graph, parent *Result, q *query.Query, s *StarQuery) *StarTable {
	return deriveStarTable(g, parent, compiled(g, q), s)
}

// compiled is what a table build reads of q's result: q and its Pat.
func compiled(g *graph.Graph, q *query.Query) *Result {
	res := &Result{Query: q}
	res.Pat.Compile(g, q)
	return res
}

// NewStripedCache returns a star-view cache striped over the given
// number of locks, for tests whose eviction order must not depend on
// the machine's automatic stripe count.
func NewStripedCache(capacity, shards int) *Cache {
	return anscache.New[*StarTable](capacity, shards)
}

// TableDiff names the first stored field in which two tables differ, or
// returns "" when they hold the same star, rows, cells, focus list and
// column signatures.
func TableDiff(a, b *StarTable) string {
	switch {
	case a.Star != b.Star:
		return "Star"
	case a.width != b.width:
		return fmt.Sprintf("width %d vs %d", a.width, b.width)
	case !slices.Equal(a.centers, b.centers):
		return fmt.Sprintf("centers %v vs %v", a.centers, b.centers)
	case !slices.Equal(a.off, b.off):
		return fmt.Sprintf("off %v vs %v", a.off, b.off)
	case !slices.Equal(a.cells, b.cells):
		return fmt.Sprintf("cells %v vs %v", a.cells, b.cells)
	case !slices.Equal(a.focus, b.focus):
		return fmt.Sprintf("focus %v vs %v", a.focus, b.focus)
	case !slices.Equal(a.ColSigs, b.ColSigs):
		return fmt.Sprintf("ColSigs %v vs %v", a.ColSigs, b.ColSigs)
	}
	return ""
}

// FocusSupport spells out what SupportsFocus answers node by node: the
// focus candidates the table supports under the query's current focus
// literals — nodes at a focus position of some row that satisfy every
// focus literal. A nil result means the star is disconnected from the
// focus and supports all candidates. The table-oracle test compares it
// with the same set derived from the row-based builder.
func (t *StarTable) FocusSupport(g *graph.Graph, q *query.Query) map[graph.NodeID]bool {
	if t.focusFree() {
		return nil
	}
	support := map[graph.NodeID]bool{}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if t.SupportsFocus(v) && q.IsCandidate(g, q.Focus, v) {
			support[v] = true
		}
	}
	return support
}
