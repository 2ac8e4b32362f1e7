// Package graph implements the directed, attributed graph model of
// Section 2.1 of "Answering Why-questions by Exemplars in Attributed
// Graphs" (SIGMOD 2019): nodes and edges carry labels, and every node
// carries a tuple of attribute-value pairs drawn from a finite attribute
// set. The package also provides the graph-level quantities the paper's
// cost model depends on: the diameter D(G) and active domains adom(A, G).
package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates the two attribute value types the paper's
// examples use: numbers (prices, display sizes, years) and strings
// (names, categorical values such as "25%"-style discounts are parsed
// as numbers when possible).
type ValueKind uint8

const (
	// Number is a float64-valued attribute.
	Number ValueKind = iota
	// String is a text-valued attribute.
	String
)

// Value is a typed attribute value. The zero Value is the number 0.
//
// A graph admits a value only in canonical form (Canonical): a Number
// or a String, no NaN, -0 stored as 0, and the field its kind ignores
// zero. On canonical values Equal, Compare == 0 and EQ.Holds are one
// test, and Compare is a total order.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
}

// N returns a numeric Value.
func N(v float64) Value { return Value{Kind: Number, Num: v} }

// S returns a string Value.
func S(v string) Value { return Value{Kind: String, Str: v} }

// ParseValue interprets s as a Value. Numeric strings — optionally
// decorated with a leading currency symbol, a trailing percent sign, or
// thousands separators — become Number values ("$800" → 800, "25%" → 25,
// "6.2" → 6.2). Everything else stays a String, "NaN", "Inf" and
// "Infinity" included: a graph admits only finite numbers.
func ParseValue(s string) Value {
	t := strings.TrimSpace(s)
	t = strings.TrimPrefix(t, "$")
	t = strings.TrimSuffix(t, "%")
	t = strings.ReplaceAll(t, ",", "")
	if t != "" {
		if f, err := strconv.ParseFloat(t, 64); err == nil && math.Abs(f) <= math.MaxFloat64 {
			return N(f)
		}
	}
	return S(s)
}

// Canonical returns v as a graph stores it: -0 as 0, and the field v's
// kind ignores (a Number's Str, a String's Num) zeroed. It refuses a NaN,
// which Compare cannot order against any number, ±Inf, which no JSON
// document can hold and whose differences the closeness and cost
// formulas cannot normalize, and a value of neither kind.
func (v Value) Canonical() (Value, error) {
	switch {
	case v.Kind == String:
		return S(v.Str), nil
	case v.Kind != Number:
		return Value{}, fmt.Errorf("value of neither kind (%d)", v.Kind)
	case math.IsNaN(v.Num):
		return Value{}, errors.New("NaN value")
	case math.IsInf(v.Num, 0):
		return Value{}, fmt.Errorf("infinite value %v", v.Num)
	case v.Num == 0:
		return N(0), nil // -0 too
	}
	return N(v.Num), nil
}

// Equal reports value equality. A Number never equals a String even if
// the text renders identically.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	if v.Kind == Number {
		return v.Num == w.Num
	}
	return v.Str == w.Str
}

// Compare orders v against w: -1, 0, or +1. Numbers order numerically,
// strings lexicographically. Mixed kinds order Numbers before Strings so
// that sorting heterogeneous domains is deterministic.
func (v Value) Compare(w Value) int {
	if v.Kind != w.Kind {
		if v.Kind == Number {
			return -1
		}
		return 1
	}
	if v.Kind == Number {
		switch {
		case v.Num < w.Num:
			return -1
		case v.Num > w.Num:
			return 1
		}
		return 0
	}
	return strings.Compare(v.Str, w.Str)
}

// AppendKey appends the identity of v to dst: the kind, then the 64 bits
// of a Number or, behind its length, the Str of anything else. Two values
// with equal keys are the same operand to every Op; String is for display
// and tells N(5) from S("5") no better than the reader can. Numbers are
// told apart by bit pattern, so a query constant -0 has a key of its own
// beside 0: a key may separate what matches alike, never merge what does
// not.
func (v Value) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(v.Kind))
	if v.Kind == Number {
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Num))
	}
	return AppendKeyString(dst, v.Str)
}

// AppendKeyString appends s to a key behind its length, so that no
// delimiter s may contain ends it early.
func AppendKeyString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// String renders the value for display.
func (v Value) String() string {
	if v.Kind == Number {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// Op is a comparison operator from the paper's literal alphabet
// {>, >=, =, <=, <}.
type Op uint8

const (
	// EQ is "=".
	EQ Op = iota
	// LT is "<".
	LT
	// LE is "<=".
	LE
	// GT is ">".
	GT
	// GE is ">=".
	GE
)

// ParseOp parses a comparison operator token.
func ParseOp(s string) (Op, error) {
	switch strings.TrimSpace(s) {
	case "=", "==":
		return EQ, nil
	case "<":
		return LT, nil
	case "<=", "≤":
		return LE, nil
	case ">":
		return GT, nil
	case ">=", "≥":
		return GE, nil
	}
	return EQ, fmt.Errorf("graph: unknown comparison operator %q", s)
}

// String renders the operator.
func (op Op) String() string {
	switch op {
	case EQ:
		return "="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Holds reports whether "a op b" is true under Compare ordering.
// Comparisons across kinds are false except for the total-order
// comparison used internally by Compare.
func (op Op) Holds(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	c := a.Compare(b)
	switch op {
	case EQ:
		return c == 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// Flip returns the operator with its operands swapped: a op b iff
// b op.Flip() a.
func (op Op) Flip() Op {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}
