package ops

import (
	"fmt"
	"slices"
	"sort"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// Sequence is an ordered list of atomic operators O = {o_1, …, o_m}.
type Sequence []Op

// Cost returns c(O) = Σ c(o).
func (s Sequence) Cost(g *graph.Graph) float64 {
	var total float64
	for _, o := range s {
		total += o.Cost(g)
	}
	return total
}

// Apply computes Q ⊕ O, verifying applicability of every step. It
// returns an error naming the first inapplicable operator.
func (s Sequence) Apply(q *query.Query, p Params) (*query.Query, error) {
	cur := q
	for i, o := range s {
		if !o.Applicable(cur, p) {
			return nil, fmt.Errorf("ops: operator %d (%s) not applicable to %s", i, o, cur)
		}
		next, err := o.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("ops: operator %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

// Target is what an operator touches, for cancel-out detection (§4): a
// literal operator touches its node's attribute, an edge operator the
// edge between its endpoints. The operators of a canonical sequence
// touch pairwise distinct targets.
type Target struct {
	Edge  bool
	U, U2 query.NodeID // U2 only for an edge
	Attr  string       // only for a literal
}

// LitTarget is the target of the literal operators on attribute attr of
// node u.
func LitTarget(u query.NodeID, attr string) Target { return Target{U: u, Attr: attr} }

// EdgeTarget is the target of the edge operators on the edge a→b.
func EdgeTarget(a, b query.NodeID) Target { return Target{Edge: true, U: a, U2: b} }

// Target returns the target o touches. ok is false for Empty and for an
// AddE to a fresh node: neither can cancel against another operator.
func (o Op) Target() (t Target, ok bool) {
	switch o.Kind {
	case RmL, AddL, RxL, RfL:
		return LitTarget(o.U, o.Lit.Attr), true
	case RmE, RxE, RfE:
		return EdgeTarget(o.U, o.U2), true
	case AddE:
		if o.NewNode == nil {
			return EdgeTarget(o.U, o.U2), true
		}
	}
	return Target{}, false
}

// Targets is a set of targets: a sequence's, one per operator at most,
// so it is scanned rather than hashed.
type Targets []Target

// Has reports whether t is in the set.
func (ts Targets) Has(t Target) bool { return slices.Contains(ts, t) }

// Targets returns the targets the sequence touches.
func (s Sequence) Targets() Targets {
	var ts Targets
	for _, o := range s {
		if t, ok := o.Target(); ok {
			ts = append(ts, t)
		}
	}
	return ts
}

// Canonical reports whether the sequence is canonical (§4): no target is
// touched by both a relaxation and a refinement (they would cancel out),
// and no target is touched twice by the same class (redundant — a
// single operator expresses the combined effect).
func (s Sequence) Canonical() bool {
	ts := s.Targets()
	for i, t := range ts {
		if ts[:i].Has(t) {
			return false
		}
	}
	return true
}

// normalRank orders operators within a normal form per the constructive
// proof of Lemma 4.1: relaxations first (RxL, RxE, RmL, then RmE), then
// refinements (AddE, AddL, RfE, RfL). This ordering keeps every prefix
// applicable: bound relaxations and literal removals precede edge
// removals, and edge additions precede the literals/bounds that refer
// to them.
func normalRank(k Kind) int {
	switch k {
	case RxL:
		return 0
	case RxE:
		return 1
	case RmL:
		return 2
	case RmE:
		return 3
	case AddE:
		return 4
	case AddL:
		return 5
	case RfE:
		return 6
	case RfL:
		return 7
	}
	return 8 // Empty sorts last and is dropped by NormalForm
}

// NormalForm returns an equivalent sequence in normal form (Lemma 4.1):
// a relaxation-only prefix followed by a refinement-only suffix, with
// empty operators dropped. The receiver must be canonical; NormalForm
// returns an error otherwise (non-canonical sequences have cancel-outs
// whose removal is the caller's responsibility).
func (s Sequence) NormalForm() (Sequence, error) {
	if !s.Canonical() {
		return nil, fmt.Errorf("ops: sequence is not canonical")
	}
	out := make(Sequence, 0, len(s))
	for _, o := range s {
		if o.Kind != Empty {
			out = append(out, o)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return normalRank(out[i].Kind) < normalRank(out[j].Kind)
	})
	return out, nil
}

// IsNormalForm reports whether the sequence already has the
// relax-prefix/refine-suffix shape.
func (s Sequence) IsNormalForm() bool {
	seenRefine := false
	for _, o := range s {
		switch {
		case o.Kind == Empty:
		case o.Kind.IsRefine():
			seenRefine = true
		case o.Kind.IsRelax() && seenRefine:
			return false
		}
	}
	return true
}
