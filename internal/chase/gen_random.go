package chase

import (
	"sort"

	"wqe/internal/graph"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// GenRandom produces applicable operators scored by coin flips instead
// of pickiness — the uninformed generator behind AnsHeuB. The pool
// covers every operator class: structural operators are enumerated
// exhaustively, literal operators sample constants from active domains.
func (w *Why) GenRandom(q *query.Query, used ops.Targets, budgetLeft float64) []scoredOp {
	rng := w.random()
	var pool []ops.Op
	consider := func(o ops.Op) {
		if t, ok := o.Target(); ok && used.Has(t) {
			return
		}
		if o.Applicable(q, w.params) && o.Cost(w.G) <= budgetLeft {
			pool = append(pool, o)
		}
	}

	for ui := range q.Nodes {
		u := query.NodeID(ui)
		for _, l := range q.Nodes[u].Literals {
			consider(ops.Op{Kind: ops.RmL, U: u, Lit: l})
			if l.Val.Kind == graph.Number {
				dom := w.G.ActiveDomain(l.Attr)
				for tries := 0; tries < 3 && dom.Numbers > 0; tries++ {
					v := dom.Values[rng.Intn(len(dom.Values))]
					if v.Kind != graph.Number {
						continue
					}
					switch l.Op {
					case graph.GE, graph.GT:
						if v.Num < l.Val.Num {
							consider(ops.Op{Kind: ops.RxL, U: u, Lit: l,
								NewLit: query.Literal{Attr: l.Attr, Op: graph.GE, Val: v}})
						} else if v.Num > l.Val.Num {
							consider(ops.Op{Kind: ops.RfL, U: u, Lit: l,
								NewLit: query.Literal{Attr: l.Attr, Op: graph.GE, Val: v}})
						}
					case graph.LE, graph.LT:
						if v.Num > l.Val.Num {
							consider(ops.Op{Kind: ops.RxL, U: u, Lit: l,
								NewLit: query.Literal{Attr: l.Attr, Op: graph.LE, Val: v}})
						} else if v.Num < l.Val.Num {
							consider(ops.Op{Kind: ops.RfL, U: u, Lit: l,
								NewLit: query.Literal{Attr: l.Attr, Op: graph.LE, Val: v}})
						}
					}
				}
			}
		}
		// Random AddL: sample attribute values from candidates of u.
		cands := q.Candidates(w.G, u)
		for tries := 0; tries < 3 && len(cands) > 0; tries++ {
			c := cands[rng.Intn(len(cands))]
			tuple := w.G.Tuple(c)
			if len(tuple) == 0 {
				continue
			}
			cell := tuple[rng.Intn(len(tuple))]
			attr := w.G.Attrs.Name(cell.Attr)
			consider(ops.Op{Kind: ops.AddL, U: u,
				Lit: query.Literal{Attr: attr, Op: graph.EQ, Val: w.G.Value(cell)}})
		}
	}

	for _, e := range q.Edges {
		consider(ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound})
		if e.Bound < w.Cfg.MaxBound {
			consider(ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound + 1})
		}
		if e.Bound > 1 {
			consider(ops.Op{Kind: ops.RfE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound - 1})
		}
	}

	// Random AddE between existing unconnected pairs, and to a random
	// fresh label.
	for ai := range q.Nodes {
		for bi := range q.Nodes {
			a, b := query.NodeID(ai), query.NodeID(bi)
			if a == b || q.FindEdge(a, b) >= 0 {
				continue
			}
			consider(ops.Op{Kind: ops.AddE, U: a, U2: b, Bound: 1 + rng.Intn(w.Cfg.MaxBound)})
		}
	}
	if n := w.G.Labels.Len(); n > 1 {
		name := w.G.Labels.Name(int32(1 + rng.Intn(n-1)))
		if name != "" {
			consider(ops.Op{Kind: ops.AddE, U: q.Focus, Bound: 1 + rng.Intn(w.Cfg.MaxBound),
				NewNode: &ops.NewNodeSpec{Label: name}})
		}
	}

	out := make([]scoredOp, len(pool))
	for i, o := range pool {
		out[i] = scoredOp{Op: o, Pick: rng.Float64(), Cost: o.Cost(w.G), PickyEdge: -1}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pick > out[j].Pick })
	return capPerClass(out, w.maxOpsPerClass)
}
