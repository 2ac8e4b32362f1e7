// Package exemplar implements the exemplar model of Section 2.2: an
// exemplar E = (T, C) is a table T of tuple patterns over the graph's
// attributes (constants, variables, wildcards) plus a conjunction C of
// constraint literals over the variables. The package computes the
// representation rep(E, V) (the maximal node set satisfying E), the
// tuple/answer closeness measures of Section 3, and the RM/IM/RC/IC
// classification that drives query rewriting.
package exemplar

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"wqe/internal/graph"
)

// CellKind discriminates tuple pattern cells.
type CellKind uint8

const (
	// Const cells hold a constant the matching node must be close to.
	Const CellKind = iota
	// Var cells bind the node's attribute value to a named variable.
	Var
	// Wildcard cells ('_') match anything.
	Wildcard
)

// Cell is one entry t_i.A_j of a tuple pattern.
type Cell struct {
	Kind CellKind
	Val  graph.Value // for Const
	Var  string      // for Var
}

// C returns a constant cell.
func C(v graph.Value) Cell { return Cell{Kind: Const, Val: v} }

// V returns a variable cell.
func V(name string) Cell { return Cell{Kind: Var, Var: name} }

// W returns a wildcard cell.
func W() Cell { return Cell{Kind: Wildcard} }

// TuplePattern is one row of T: attribute → cell. Attributes absent
// from the map are implicit wildcards that do not count toward the
// closeness denominator |A(t)|.
type TuplePattern map[string]Cell

// Constraint is one literal of C: either a variable literal
// "x op y" (IsVar) or a constant literal "x op c".
type Constraint struct {
	Left  string // variable name
	Op    graph.Op
	IsVar bool
	Right string      // variable name when IsVar
	Val   graph.Value // constant when !IsVar
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.IsVar {
		return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Right)
	}
	return fmt.Sprintf("%s %s %s", c.Left, c.Op, c.Val)
}

// Exemplar is E = (T, C).
type Exemplar struct {
	Tuples      []TuplePattern
	Constraints []Constraint
}

// binding locates a variable: which tuple row and attribute it names.
type binding struct {
	tuple int
	attr  string
}

// bindings maps every variable to its (unique) cell. It errors on
// unbound constraint variables and on variables bound twice: the
// paper's variables x_ij name exactly one cell.
func (e *Exemplar) bindings() (map[string]binding, error) {
	b := make(map[string]binding)
	var buf [16]string // most patterns fit: then ordering them allocates nothing
	for ti, t := range e.Tuples {
		for _, attr := range t.appendSortedAttrs(buf[:0]) {
			cell := t[attr]
			if cell.Kind != Var {
				continue
			}
			if prev, dup := b[cell.Var]; dup {
				return nil, fmt.Errorf("exemplar: variable %q bound at both t%d.%s and t%d.%s",
					cell.Var, prev.tuple, prev.attr, ti, attr)
			}
			b[cell.Var] = binding{tuple: ti, attr: attr}
		}
	}
	for _, c := range e.Constraints {
		if _, ok := b[c.Left]; !ok {
			return nil, fmt.Errorf("exemplar: constraint %s uses unbound variable %q", c, c.Left)
		}
		if c.IsVar {
			if _, ok := b[c.Right]; !ok {
				return nil, fmt.Errorf("exemplar: constraint %s uses unbound variable %q", c, c.Right)
			}
		}
	}
	return b, nil
}

// Validate checks the exemplar for well-formedness: tuple patterns,
// every variable bound once, and constants a graph could hold (no NaN,
// no value of neither kind; graph.Value.Canonical).
func (e *Exemplar) Validate() error {
	if len(e.Tuples) == 0 {
		return fmt.Errorf("exemplar: no tuple patterns")
	}
	for ti, t := range e.Tuples {
		for _, attr := range t.SortedAttrs() {
			if cell := t[attr]; cell.Kind == Const {
				if _, err := cell.Val.Canonical(); err != nil {
					return fmt.Errorf("exemplar: cell t%d.%s: %w", ti, attr, err)
				}
			}
		}
	}
	for _, c := range e.Constraints {
		if !c.IsVar {
			if _, err := c.Val.Canonical(); err != nil {
				return fmt.Errorf("exemplar: constraint %s: %w", c, err)
			}
		}
	}
	_, err := e.bindings()
	return err
}

// String renders E compactly.
func (e *Exemplar) String() string {
	var b strings.Builder
	for i, t := range e.Tuples {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "t%d⟨", i)
		for j, a := range t.SortedAttrs() {
			if j > 0 {
				b.WriteString(", ")
			}
			cell := t[a]
			switch cell.Kind {
			case Const:
				fmt.Fprintf(&b, "%s=%s", a, cell.Val)
			case Var:
				fmt.Fprintf(&b, "%s=%s", a, cell.Var)
			case Wildcard:
				fmt.Fprintf(&b, "%s=_", a)
			}
		}
		b.WriteString("⟩")
	}
	for _, c := range e.Constraints {
		fmt.Fprintf(&b, "; %s", c)
	}
	return b.String()
}

// FromEntities builds the "set of entities from G" form of an exemplar
// (§2.2 Remarks): one tuple pattern per entity, with constant cells for
// the listed attributes the entity carries. An empty attrs list copies
// the entity's whole tuple. Duplicate rows are merged.
func FromEntities(g *graph.Graph, entities []graph.NodeID, attrs []string) *Exemplar {
	e := &Exemplar{}
	seen := map[string]bool{}
	for _, v := range entities {
		t := TuplePattern{}
		if len(attrs) == 0 {
			for _, c := range g.Tuple(v) {
				t[g.Attrs.Name(c.Attr)] = C(g.Value(c))
			}
		} else {
			for _, a := range attrs {
				if val, ok := g.Attr(v, a); ok {
					t[a] = C(val)
				}
			}
		}
		if len(t) == 0 {
			continue
		}
		key := string(t.appendKey(nil))
		if !seen[key] {
			seen[key] = true
			e.Tuples = append(e.Tuples, t)
		}
	}
	return e
}

// SortedAttrs returns the pattern's attribute names in sorted order,
// the canonical iteration order everywhere tuple cells are visited
// (closeness sums, variable binding, serialization): raw map order
// would leak Go's iteration randomness into float rounding and error
// messages.
func (t TuplePattern) SortedAttrs() []string {
	return t.appendSortedAttrs(make([]string, 0, len(t)))
}

// appendSortedAttrs appends the pattern's attribute names to dst in
// sorted order.
func (t TuplePattern) appendSortedAttrs(dst []string) []string {
	n := len(dst)
	for a := range t {
		dst = append(dst, a)
	}
	slices.Sort(dst[n:])
	return dst
}

// AppendKey appends the exemplar's identity to dst: every tuple pattern
// in order (appendKey), then every constraint — the variable, the
// operator, and tagged apart, the other variable or the constant's key.
// Exemplars with equal keys have the same rep over every graph. String is
// for display: it renders the constant 1, the constant "1" and the
// variable named 1 alike.
func (e *Exemplar) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Tuples)))
	for _, t := range e.Tuples {
		dst = t.appendKey(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Constraints)))
	for _, c := range e.Constraints {
		dst = append(graph.AppendKeyString(dst, c.Left), byte(c.Op))
		if c.IsVar {
			dst = graph.AppendKeyString(append(dst, 'v'), c.Right)
		} else {
			dst = c.Val.AppendKey(append(dst, 'c'))
		}
	}
	return dst
}

// appendKey appends the pattern's identity to dst: its attributes in
// sorted order, each with its cell's kind and what a cell of that kind
// holds — a constant's key, a variable's name, nothing for a wildcard.
func (t TuplePattern) appendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	var buf [16]string // most patterns fit: then ordering them allocates nothing
	for _, a := range t.appendSortedAttrs(buf[:0]) {
		cell := t[a]
		dst = append(graph.AppendKeyString(dst, a), byte(cell.Kind))
		switch cell.Kind {
		case Const:
			dst = cell.Val.AppendKey(dst)
		case Var:
			dst = graph.AppendKeyString(dst, cell.Var)
		}
	}
	return dst
}
