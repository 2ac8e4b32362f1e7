// Package ops implements the eight atomic query-rewriting operator
// classes of Table 1 — relaxations RmL, RmE, RxL, RxE and refinements
// AddL, AddE, RfL, RfE — plus the empty operator, with the paper's unit
// cost model c(o) ∈ [1, 2], applicability checks, and application
// (Q ⊕ o). It also implements operator sequences: validity,
// canonicality (no cancel-outs), and the normal-form transformation of
// Lemma 4.1.
package ops

import (
	"fmt"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// Kind enumerates the operator classes.
type Kind uint8

// Operator classes. The first four relax (can only add matches), the
// last four refine (can only remove matches).
const (
	Empty Kind = iota
	RmL        // remove literal
	RmE        // remove edge
	RxL        // relax literal constant
	RxE        // relax edge bound
	AddL       // add literal
	AddE       // add edge (optionally with a fresh pattern node)
	RfL        // refine literal constant
	RfE        // refine edge bound
)

// String renders the class name.
func (k Kind) String() string {
	switch k {
	case Empty:
		return "∅"
	case RmL:
		return "RmL"
	case RmE:
		return "RmE"
	case RxL:
		return "RxL"
	case RxE:
		return "RxE"
	case AddL:
		return "AddL"
	case AddE:
		return "AddE"
	case RfL:
		return "RfL"
	case RfE:
		return "RfE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsRelax reports whether the class is a relaxation.
func (k Kind) IsRelax() bool { return k >= RmL && k <= RxE }

// IsRefine reports whether the class is a refinement.
func (k Kind) IsRefine() bool { return k >= AddL && k <= RfE }

// NewNodeSpec describes the fresh pattern node an AddE may introduce
// (Appendix B, rule 2 of AddE generation).
type NewNodeSpec struct {
	Label string
}

// Op is one atomic operator. Which fields are meaningful depends on
// Kind:
//
//	RmL:  U, Lit
//	AddL: U, Lit
//	RxL:  U, Lit (old), NewLit
//	RfL:  U, Lit (old), NewLit
//	RmE:  U, U2 (edge U→U2), Bound
//	AddE: U, U2, Bound; NewNode non-nil when U2 is a fresh node
//	RxE:  U, U2, Bound (old), NewBound
//	RfE:  U, U2, Bound (old), NewBound
type Op struct {
	Kind     Kind
	U, U2    query.NodeID
	Lit      query.Literal
	NewLit   query.Literal
	Bound    int
	NewBound int
	NewNode  *NewNodeSpec
}

// String renders the operator compactly.
func (o Op) String() string {
	switch o.Kind {
	case Empty:
		return "∅"
	case RmL:
		return fmt.Sprintf("RmL(u%d, %s)", o.U, o.Lit)
	case AddL:
		return fmt.Sprintf("AddL(u%d, %s)", o.U, o.Lit)
	case RxL:
		return fmt.Sprintf("RxL(u%d.%s, %s → %s %s)", o.U, o.Lit.Attr, o.Lit, o.NewLit.Op, o.NewLit.Val)
	case RfL:
		return fmt.Sprintf("RfL(u%d.%s, %s → %s %s)", o.U, o.Lit.Attr, o.Lit, o.NewLit.Op, o.NewLit.Val)
	case RmE:
		return fmt.Sprintf("RmE((u%d,u%d), %d)", o.U, o.U2, o.Bound)
	case AddE:
		if o.NewNode != nil {
			return fmt.Sprintf("AddE((u%d,+%q), %d)", o.U, o.NewNode.Label, o.Bound)
		}
		return fmt.Sprintf("AddE((u%d,u%d), %d)", o.U, o.U2, o.Bound)
	case RxE:
		return fmt.Sprintf("RxE((u%d,u%d), %d → %d)", o.U, o.U2, o.Bound, o.NewBound)
	case RfE:
		return fmt.Sprintf("RfE((u%d,u%d), %d → %d)", o.U, o.U2, o.Bound, o.NewBound)
	}
	return "op?"
}

// MinCost is the unit term of every Table 1 cost: no operator but Empty
// costs less, so a remaining budget below it buys nothing.
const MinCost = 1.0

// Cost returns c(o) per Table 1: the unit cost MinCost plus a
// relative-difference term normalized by range(A) for literal
// modifications and by D(G) for edge-bound updates. Costs always land in
// [1, 2] (the normalizing denominators dominate the numerators by
// construction); Empty costs 0.
func (o Op) Cost(g *graph.Graph) float64 {
	switch o.Kind {
	case Empty:
		return 0
	case RmL, AddL:
		return MinCost
	case RmE, AddE:
		return MinCost + clamp01(float64(o.Bound)/float64(g.Diameter()))
	case RxE, RfE:
		diff := o.Bound - o.NewBound
		if diff < 0 {
			diff = -diff
		}
		return MinCost + clamp01(float64(diff)/float64(g.Diameter()))
	case RxL, RfL:
		if o.Lit.Val.Kind != graph.Number || o.NewLit.Val.Kind != graph.Number {
			return 2 // categorical rewrite: maximal relative difference
		}
		return MinCost + clamp01(g.ActiveDomain(o.Lit.Attr).Distance(o.NewLit.Val.Num, o.Lit.Val.Num))
	}
	return MinCost
}

// clamp01 clamps f to [0, 1]. NaN (a NaN literal constant) clamps to 0,
// so that no cost falls below MinCost or compares false against every
// budget.
func clamp01(f float64) float64 {
	if f > 1 {
		return 1
	}
	if f > 0 {
		return f
	}
	return 0
}

// numericRegion returns the half-open numeric satisfaction interval
// [lo, hi] of a literal (using ±inf sentinels) for weakness comparison.
// ok is false for non-numeric or equality-on-string literals, which
// have no interval semantics.
func numericRegion(l query.Literal) (lo, hi float64, loOpen, hiOpen, ok bool) {
	if l.Val.Kind != graph.Number {
		return 0, 0, false, false, false
	}
	const inf = 1e308
	c := l.Val.Num
	switch l.Op {
	case graph.EQ:
		return c, c, false, false, true
	case graph.LT:
		return -inf, c, false, true, true
	case graph.LE:
		return -inf, c, false, false, true
	case graph.GT:
		return c, inf, true, false, true
	case graph.GE:
		return c, inf, false, false, true
	}
	return 0, 0, false, false, false
}

// Weaker reports whether literal b is at least as weak as literal a on
// the same attribute: every value satisfying a satisfies b. Only
// numeric literals compare; anything else is reported not-weaker.
func Weaker(a, b query.Literal) bool {
	if a.Attr != b.Attr {
		return false
	}
	alo, ahi, aloOpen, ahiOpen, ok := numericRegion(a)
	if !ok {
		return false
	}
	blo, bhi, bloOpen, bhiOpen, ok := numericRegion(b)
	if !ok {
		return false
	}
	loOK := blo < alo || (blo == alo && (!bloOpen || aloOpen))
	hiOK := bhi > ahi || (bhi == ahi && (!bhiOpen || ahiOpen))
	return loOK && hiOK
}

// Params carries global rewrite limits.
type Params struct {
	// MaxBound is b_m, the cap on any pattern-edge hop bound.
	MaxBound int
}

// DefaultParams uses b_m = 3, the largest bound the paper's examples
// pose.
func DefaultParams() Params { return Params{MaxBound: 3} }

// Applicable reports whether o can be applied to q: Q ⊕ {o} must be a
// pattern query different from Q (§2.2).
func (o Op) Applicable(q *query.Query, p Params) bool {
	inRange := func(u query.NodeID) bool { return int(u) >= 0 && int(u) < len(q.Nodes) }
	switch o.Kind {
	case Empty:
		return true
	case RmL:
		return inRange(o.U) && q.HasLiteral(o.U, o.Lit)
	case AddL:
		if !inRange(o.U) || q.HasLiteral(o.U, o.Lit) {
			return false
		}
		// Refuse a second literal with the same attribute+operator: the
		// pair would either be redundant or contradictory.
		return q.FindLiteral(o.U, o.Lit.Attr, o.Lit.Op) < 0
	case RxL:
		if !inRange(o.U) || !q.HasLiteral(o.U, o.Lit) {
			return false
		}
		return !o.Lit.Equal(o.NewLit) && Weaker(o.Lit, o.NewLit)
	case RfL:
		if !inRange(o.U) || !q.HasLiteral(o.U, o.Lit) {
			return false
		}
		return !o.Lit.Equal(o.NewLit) && Weaker(o.NewLit, o.Lit)
	case RmE:
		if !inRange(o.U) || !inRange(o.U2) {
			return false
		}
		i := q.FindEdge(o.U, o.U2)
		return i >= 0 && q.Edges[i].Bound == o.Bound
	case AddE:
		if !inRange(o.U) {
			return false
		}
		if o.Bound < 1 || o.Bound > p.MaxBound {
			return false
		}
		if o.NewNode != nil {
			return true
		}
		if !inRange(o.U2) || o.U == o.U2 {
			return false
		}
		return q.FindEdge(o.U, o.U2) < 0
	case RxE:
		if !inRange(o.U) || !inRange(o.U2) {
			return false
		}
		i := q.FindEdge(o.U, o.U2)
		return i >= 0 && q.Edges[i].Bound == o.Bound &&
			o.NewBound > o.Bound && o.NewBound <= p.MaxBound
	case RfE:
		if !inRange(o.U) || !inRange(o.U2) {
			return false
		}
		i := q.FindEdge(o.U, o.U2)
		return i >= 0 && q.Edges[i].Bound == o.Bound &&
			o.NewBound >= 1 && o.NewBound < o.Bound
	}
	return false
}

// Apply returns Q ⊕ {o} as a fresh query, or an error when the
// operator does not structurally fit q (its literal or edge is absent).
// Callers that checked Applicable first never see the error, but the
// chase propagates it rather than trusting that discipline blindly.
//
// RmE may leave a non-focus pattern node isolated. The node stays in
// the query (so node indices remain stable across operator reordering,
// which the Lemma 4.1 normal form depends on), but isolated non-focus
// nodes do not constrain matches (query.IsolatedIgnored): the
// NP-hardness proof of Theorem 3.2 relies on edge removal detaching the
// constraint the removed edge's endpoint posed.
func (o Op) Apply(q *query.Query) (*query.Query, error) {
	c := q.Clone()
	switch o.Kind {
	case Empty:
		return c, nil
	case RmL:
		lits := c.Nodes[o.U].Literals
		for i, l := range lits {
			if l.Equal(o.Lit) {
				c.Nodes[o.U].Literals = append(lits[:i:i], lits[i+1:]...)
				return c, nil
			}
		}
		return nil, fmt.Errorf("ops: RmL literal not found: %s", o)
	case AddL:
		c.Nodes[o.U].Literals = append(c.Nodes[o.U].Literals, o.Lit)
		return c, nil
	case RxL, RfL:
		lits := c.Nodes[o.U].Literals
		for i, l := range lits {
			if l.Equal(o.Lit) {
				lits[i] = o.NewLit
				return c, nil
			}
		}
		return nil, fmt.Errorf("ops: %s literal not found: %s", o.Kind, o)
	case RmE:
		i := c.FindEdge(o.U, o.U2)
		if i < 0 {
			return nil, fmt.Errorf("ops: RmE edge not found: %s", o)
		}
		c.Edges = append(c.Edges[:i:i], c.Edges[i+1:]...)
		return c, nil
	case AddE:
		to := o.U2
		if o.NewNode != nil {
			to = c.AddNode(o.NewNode.Label)
		}
		c.AddEdge(o.U, to, o.Bound)
		return c, nil
	case RxE, RfE:
		i := c.FindEdge(o.U, o.U2)
		if i < 0 {
			return nil, fmt.Errorf("ops: %s edge not found: %s", o.Kind, o)
		}
		c.Edges[i].Bound = o.NewBound
		return c, nil
	}
	return nil, fmt.Errorf("ops: unknown operator kind %d", o.Kind)
}
