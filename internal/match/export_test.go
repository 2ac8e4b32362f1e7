package match

import (
	"wqe/internal/graph"
	"wqe/internal/query"
)

// BuildStarTable lets the external table-oracle test build tables
// directly: it draws its queries from internal/datagen, which imports
// this package.
var BuildStarTable = buildStarTable

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
	check := q.Check(g, q.Focus)
	support := map[graph.NodeID]bool{}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if t.SupportsFocus(v) && check.Candidate(g, v) {
			support[v] = true
		}
	}
	return support
}
