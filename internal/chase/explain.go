package chase

import (
	"fmt"
	"strings"

	"wqe/internal/graph"
	"wqe/internal/ops"
)

// Explain renders the answer's lineage as a human-readable
// why-provenance report (§5.4): one paragraph per applied operator
// describing what it did and, where the answer carries its lineage
// (Diff), which entities it brought in or pushed out, with entity names
// resolved from the graph's "Name" attribute when present.
func (a Answer) Explain(g *graph.Graph) string {
	var b strings.Builder
	switch {
	case a.Replaced:
		fmt.Fprintf(&b, "Replaced the query with a mined one: %s.\n", a.Query)
	case len(a.Ops) == 0:
		b.WriteString("The original query was kept unchanged")
		if a.Satisfied {
			b.WriteString("; its answers already satisfy the exemplar.\n")
		} else {
			b.WriteString("; no affordable rewrite satisfied the exemplar.\n")
		}
		return b.String()
	default:
		fmt.Fprintf(&b, "Rewrote the query with %d operator(s), total cost %.2f:\n",
			len(a.Ops), a.Cost)
	}
	// The searches' lineage holds every operator in the order applied,
	// with its answer delta; without it, the operators are named alone.
	lineage := len(a.Diff) == len(a.Ops)
	for i, o := range a.Ops {
		if !lineage {
			fmt.Fprintf(&b, "  • %s — %s.\n", o, describeOp(o))
			continue
		}
		d := a.Diff[i]
		fmt.Fprintf(&b, "  • %s — %s", d.Op, describeOp(d.Op))
		var added, removed []string
		for _, n := range d.Delta {
			name := entityName(g, n.V)
			if n.Added {
				added = append(added, fmt.Sprintf("%s (%s)", name, n.Rel))
			} else {
				removed = append(removed, fmt.Sprintf("%s (%s)", name, n.Rel))
			}
		}
		if len(added) > 0 {
			fmt.Fprintf(&b, "; brought in %s", strings.Join(added, ", "))
		}
		if len(removed) > 0 {
			fmt.Fprintf(&b, "; pushed out %s", strings.Join(removed, ", "))
		}
		if len(added) == 0 && len(removed) == 0 {
			b.WriteString("; no immediate answer change (enables later steps)")
		}
		b.WriteString(".\n")
	}
	fmt.Fprintf(&b, "Final answers: %d entities, closeness %.4f.\n",
		len(a.Matches), a.Closeness)
	return b.String()
}

// describeOp turns an operator into a short English clause.
func describeOp(o ops.Op) string {
	switch o.Kind {
	case ops.RmL:
		return fmt.Sprintf("dropped the condition %q on node u%d", o.Lit.String(), o.U)
	case ops.RxL:
		return fmt.Sprintf("loosened %q to %q on node u%d", o.Lit.String(), o.NewLit.String(), o.U)
	case ops.RfL:
		return fmt.Sprintf("tightened %q to %q on node u%d", o.Lit.String(), o.NewLit.String(), o.U)
	case ops.AddL:
		return fmt.Sprintf("required %q on node u%d", o.Lit.String(), o.U)
	case ops.RmE:
		return fmt.Sprintf("no longer requires u%d to connect to u%d", o.U, o.U2)
	case ops.RxE:
		return fmt.Sprintf("allows u%d to reach u%d within %d hops instead of %d", o.U, o.U2, o.NewBound, o.Bound)
	case ops.RfE:
		return fmt.Sprintf("requires u%d to reach u%d within %d hops instead of %d", o.U, o.U2, o.NewBound, o.Bound)
	case ops.AddE:
		if o.NewNode != nil {
			return fmt.Sprintf("requires a %q within %d hops of u%d", o.NewNode.Label, o.Bound, o.U)
		}
		return fmt.Sprintf("requires u%d to reach u%d within %d hops", o.U, o.U2, o.Bound)
	}
	return "no change"
}

// entityName resolves a display name for a node.
func entityName(g *graph.Graph, v graph.NodeID) string {
	for _, attr := range []string{"Name", "Title", "Model"} {
		if val, ok := g.Attr(v, attr); ok {
			return val.String()
		}
	}
	return fmt.Sprintf("#%d(%s)", v, g.Label(v))
}
