package match

import (
	"slices"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// A Q-Chase state is evaluated next to the result of the state it was
// rewritten from, and half the star tables a search builds belong to a
// rewrite that only added literals to a non-focus node: such a table is
// its parent's with the tightened nodes re-tested — the incremental
// star-view maintenance of §5.2. Nothing here trusts the caller: what the
// child may take from the parent is decided from the two queries.

// tightened compares the literal sets of one pattern node in a parent
// query and in a rewrite of it: ok when the child's contain the parent's
// (its candidates are then a subset of the parent's), tight when the
// child also has a literal the parent lacks. Sets, not lists: a literal
// carried twice tightens nothing. Literals are the same when their keys
// are (Literal.Compare), so containment here and equality of star keys
// never disagree.
func tightened(parent, child []query.Literal) (tight, ok bool) {
	has := func(set []query.Literal, l query.Literal) bool {
		return slices.ContainsFunc(set, func(x query.Literal) bool { return x.Compare(l) == 0 })
	}
	for _, l := range parent {
		if !has(child, l) {
			return false, false
		}
	}
	for _, l := range child {
		if !has(parent, l) {
			return true, true
		}
	}
	return false, true
}

// focusCandidates is q.Candidates(g, q.Focus), read off the parent's list
// when the focus kept its label and its literals (the list itself) or
// only gained literals (a filter of it).
func focusCandidates(g *graph.Graph, parent *Result, q *query.Query) []graph.NodeID {
	if parent == nil || parent.Query.Focus != q.Focus {
		return q.Candidates(g, q.Focus)
	}
	pn, n := parent.Query.Nodes[q.Focus], q.Nodes[q.Focus]
	tight, ok := tightened(pn.Literals, n.Literals)
	if !ok || pn.Label != n.Label {
		return q.Candidates(g, q.Focus)
	}
	pool := parent.Candidates[q.Focus]
	if !tight {
		return pool
	}
	check := n.Check(g)
	out := make([]graph.NodeID, 0, len(pool))
	for _, v := range pool {
		if check.Candidate(g, v) {
			out = append(out, v)
		}
	}
	return out
}

// deriveStarTable returns the table of star s of q built from the table
// parent holds for the same star under looser literals, or nil when parent
// holds none. The precondition: a star of parent's query with the same
// center, the same edges in the same order (other endpoint, direction,
// bound), the same relation to the focus (the same focus, HasFocus,
// AugDist) and, node by node, the same label and — on every node but the
// focus, whose positions ignore literals — literals that contain the
// parent's.
//
// The result equals buildStarTable(g, q, s) cell for cell. The child's
// check of a node is then the parent's check and the added literals, so
// filtering a parent column by the child's check leaves exactly the ball
// nodes the child's check admits, in the same ascending order; a column
// can only shrink, so a child's row — a center passing the child's check
// whose every column is non-empty — is a parent's row; untightened
// columns, focus columns and the augmented column are label-and-distance
// only on both sides and carry over as they are.
//
// A star no literal was added to gets the parent's table itself: a hit
// the cache had evicted, or a key the same literal written twice changed.
func deriveStarTable(g *graph.Graph, parent *Result, q *query.Query, s *StarQuery) *StarTable {
	if parent == nil {
		return nil
	}
	pq := parent.Query
	if pq.Focus != q.Focus || pq.Nodes[pq.Focus].Label != q.Nodes[q.Focus].Label {
		return nil
	}
	var pi *StarInstance
	for i := range parent.Stars {
		if parent.Stars[i].Star.Center == s.Center { // a view has one star per center
			pi = &parent.Stars[i]
			break
		}
	}
	if pi == nil {
		return nil
	}
	ps := pi.Star
	if ps.HasFocus != s.HasFocus || ps.AugDist != s.AugDist || len(ps.Edges) != len(s.Edges) {
		return nil
	}
	for k, e := range s.Edges {
		if pe := ps.Edges[k]; pe.Other != e.Other || pe.Out != e.Out || pe.Bound != e.Bound || pi.Cols[k] < 0 {
			return nil
		}
	}

	// checks holds the child's compiled predicate of every tightened node.
	checks := make([]*query.NodeCheck, len(q.Nodes))
	anyTight := false
	admit := func(u query.NodeID) bool {
		if u == q.Focus || checks[u] != nil {
			return true
		}
		pn, n := pq.Nodes[u], q.Nodes[u]
		tight, ok := tightened(pn.Literals, n.Literals)
		if !ok || pn.Label != n.Label {
			return false
		}
		if tight {
			c := n.Check(g)
			checks[u] = &c
			anyTight = true
		}
		return true
	}
	if !admit(s.Center) {
		return nil
	}
	for _, e := range s.Edges {
		if !admit(e.Other) {
			return nil
		}
	}
	pt := pi.Table
	if !anyTight {
		return pt
	}

	t, sc := newStarTable(s)
	for r, vc := range pt.centers {
		if c := checks[s.Center]; c != nil && !c.Candidate(g, vc) {
			continue
		}
		nOff, nCells := len(t.off), len(t.cells)
		ok := true
		for k, e := range s.Edges {
			col := pt.Col(r, pi.Cols[k])
			if c := checks[e.Other]; c != nil {
				for _, v := range col {
					if c.Candidate(g, v) {
						t.cells = append(t.cells, v)
					}
				}
			} else {
				t.cells = append(t.cells, col...)
			}
			if ok = len(t.cells) > t.off[len(t.off)-1]; !ok {
				break
			}
			t.off = append(t.off, len(t.cells))
		}
		if !ok {
			t.off, t.cells = t.off[:nOff], t.cells[:nCells]
			continue
		}
		if t.augmented() { // the augmented column, last in both
			t.cells = append(t.cells, pt.Col(r, len(s.Edges))...)
			t.off = append(t.off, len(t.cells))
		}
		t.centers = append(t.centers, vc)
	}
	t.finish(q, sc)
	return t
}
