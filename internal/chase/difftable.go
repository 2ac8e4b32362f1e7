package chase

import (
	"fmt"
	"strings"

	"wqe/internal/graph"
	"wqe/internal/ops"
)

// DiffNode is one answer change caused by a Q-Chase step: a focus node
// that entered or left the answer, with its relevance to the exemplar.
type DiffNode struct {
	V     graph.NodeID
	Rel   Relevance
	Added bool
}

// DiffEntry is one row of the differential table T_D (§5.4 "Generating
// Explanations"): the picky operator applied, the picky edge that
// induced it (an index into the pre-rewrite query's edge list, or -1
// for node-local operators), and the answer delta it caused.
type DiffEntry struct {
	Op        ops.Op
	PickyEdge int
	Delta     []DiffNode
}

// String renders the entry the way Fig 6's differential table does.
func (d DiffEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ⇒", d.Op)
	for _, n := range d.Delta {
		sign := "+"
		if !n.Added {
			sign = "−"
		}
		fmt.Fprintf(&b, " %s%d(%s)", sign, n.V, n.Rel)
	}
	return b.String()
}

// diffEntry computes the answer delta of one step: the nodes that
// entered the answer, then those that left it, each in ascending order.
func (w *Why) diffEntry(op ops.Op, pickyEdge int, before, after []graph.NodeID) DiffEntry {
	e := DiffEntry{Op: op, PickyEdge: pickyEdge}
	eachMissing(after, before, func(v graph.NodeID) {
		rel := IM
		if w.Eval.InRep(v) {
			rel = RM
		}
		e.Delta = append(e.Delta, DiffNode{V: v, Rel: rel, Added: true})
	})
	eachMissing(before, after, func(v graph.NodeID) {
		rel := IC
		if w.Eval.InRep(v) {
			rel = RC
		}
		e.Delta = append(e.Delta, DiffNode{V: v, Rel: rel, Added: false})
	})
	return e
}

// eachMissing calls fn, in order, on every node of a that b lacks. Both
// are ascending, as answers are, so one merge walk finds them.
func eachMissing(a, b []graph.NodeID, fn func(graph.NodeID)) {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			fn(v)
		}
	}
}
