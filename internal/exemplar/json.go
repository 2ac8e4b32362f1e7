package exemplar

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"wqe/internal/graph"
	"wqe/internal/jsonscan"
)

// jsonExemplar is the on-disk shape used by the CLI tools:
//
//	{
//	  "tuples": [
//	    {"Display": {"const": 6.2}, "Storage": {"var": "x1"}, "Price": {"wildcard": true}},
//	    {"Display": {"const": 6.3}, "Storage": {"var": "x2"}, "Price": {"var": "x3"}}
//	  ],
//	  "constraints": [
//	    {"left": "x3", "op": "<", "const": 800},
//	    {"left": "x1", "op": ">", "right": "x2"}
//	  ]
//	}
type jsonExemplar struct {
	Tuples      []map[string]jsonCell `json:"tuples"`
	Constraints []jsonConstraint      `json:"constraints,omitempty"`
}

type jsonCell struct {
	Const    json.RawMessage `json:"const,omitempty"`
	Var      string          `json:"var,omitempty"`
	Wildcard bool            `json:"wildcard,omitempty"`
}

type jsonConstraint struct {
	Left  string          `json:"left"`
	Op    string          `json:"op"`
	Right string          `json:"right,omitempty"`
	Const json.RawMessage `json:"const,omitempty"`
}

// WriteJSON serializes the exemplar.
func (e *Exemplar) WriteJSON(w io.Writer) error {
	je := jsonExemplar{}
	for _, t := range e.Tuples {
		jt := map[string]jsonCell{}
		for _, attr := range t.SortedAttrs() {
			cell := t[attr]
			switch cell.Kind {
			case Const:
				raw, err := cell.Val.JSON()
				if err != nil {
					return err
				}
				jt[attr] = jsonCell{Const: raw}
			case Var:
				jt[attr] = jsonCell{Var: cell.Var}
			case Wildcard:
				jt[attr] = jsonCell{Wildcard: true}
			}
		}
		je.Tuples = append(je.Tuples, jt)
	}
	for _, c := range e.Constraints {
		jc := jsonConstraint{Left: c.Left, Op: c.Op.String()}
		if c.IsVar {
			jc.Right = c.Right
		} else {
			raw, err := c.Val.JSON()
			if err != nil {
				return err
			}
			jc.Const = raw
		}
		je.Constraints = append(je.Constraints, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(je)
}

// ReadJSON parses an exemplar in the WriteJSON shape and validates it:
// one JSON value is read from r (DecodeJSON), and what follows it is not.
func ReadJSON(r io.Reader) (*Exemplar, error) {
	e, err := DecodeJSON(jsonscan.NewReaderSize(r, 4<<10))
	var se *jsonscan.Error
	if errors.As(err, &se) {
		return nil, fmt.Errorf("exemplar: decode: %w", err)
	}
	return e, err
}

// DecodeJSON reads an exemplar in the WriteJSON shape from r, builds it
// and validates it. It reads as encoding/json decoded the document into
// the WriteJSON structs, with one documented difference: keys match the
// field names case-insensitively (jsonscan.FieldIs) — a tuple's keys are
// its attribute names, taken as they are —, other keys are skipped, a
// key given twice takes its last value, null leaves a field as it was
// and empties a list, a null tuple or constraint has no keys, a cell is
// a wildcard if "wildcard" is true, else a variable if "var" is not
// empty, else a constant if "const" is present (a number, a string, or
// null for the number 0), and a value of the wrong kind fails the
// exemplar once the document is read. The difference: a second "tuples"
// or "constraints" array replaces the first, where encoding/json decoded
// it element by element into the first one's elements.
//
// A *jsonscan.Error means that the input is not JSON, and r stopped where
// it failed; any other error is about the exemplar, and r has read the
// whole document.
func DecodeJSON(r *jsonscan.Reader) (*Exemplar, error) {
	d := exemplarDecoder{r: r}
	if err := r.Struct(d.field); d.types.Keep(err) != nil {
		return nil, err
	}
	switch {
	case d.types.Err != nil:
		return nil, fmt.Errorf("exemplar: decode: %w", d.types.Err)
	case d.tupleFault != nil:
		return nil, d.tupleFault
	case d.constraintFault != nil:
		return nil, d.constraintFault
	}
	e := &Exemplar{Tuples: d.tuples, Constraints: d.constraints}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// exemplarDecoder holds an exemplar document as DecodeJSON reads it.
type exemplarDecoder struct {
	r           *jsonscan.Reader
	types       jsonscan.Sticky // the first value of the wrong kind
	tuples      []TuplePattern
	constraints []Constraint

	// The first tuple with a cell that sets nothing or a constant that is
	// neither number nor string, and the first constraint that names no
	// operator or has no right-hand side.
	tupleFault, constraintFault error
	names                       []string // attribute names to share
}

// Kinds that mark, while a tuple is read, a cell that is no cell.
const (
	noCell   CellKind = 0xfe // sets none of const, var and wildcard
	badConst CellKind = 0xff // a constant neither number nor string
)

func (d *exemplarDecoder) field(key []byte) error {
	r := d.r
	switch {
	case jsonscan.FieldIs(key, "tuples"):
		d.tuples, d.tupleFault = nil, nil
		return d.types.Keep(r.List(d.tuple))
	case jsonscan.FieldIs(key, "constraints"):
		d.constraints, d.constraintFault = nil, nil
		return d.types.Keep(r.List(d.constraint))
	}
	return r.Skip(r.Depth())
}

// tuple reads the element at index ti of a "tuples" array. A cell that
// is no cell fails the exemplar unless a later cell of the same
// attribute replaces it.
func (d *exemplarDecoder) tuple(ti int) error {
	t := TuplePattern{}
	faulty := false
	err := d.r.Struct(func(key []byte) error {
		attr := d.name(key)
		cell, err := d.cell()
		t[attr] = cell
		faulty = faulty || cell.Kind == noCell || cell.Kind == badConst
		return err
	})
	d.tuples = append(d.tuples, t)
	if !faulty || d.tupleFault != nil {
		return d.types.Keep(err)
	}
	// The first by attribute name, as the checks always ran.
	for _, attr := range t.SortedAttrs() {
		switch t[attr].Kind {
		case noCell:
			d.tupleFault = fmt.Errorf("exemplar: tuple %d attr %q: cell must set const, var, or wildcard", ti, attr)
		case badConst:
			d.tupleFault = fmt.Errorf("exemplar: tuple %d attr %q: value is neither number nor string", ti, attr)
		default:
			continue
		}
		break
	}
	return d.types.Keep(err)
}

// name returns key as a string: the one an earlier tuple's attribute
// holds when it is one of the first few names read, since tuples tend to
// share their attributes.
func (d *exemplarDecoder) name(key []byte) string {
	for _, s := range d.names {
		if s == string(key) {
			return s
		}
	}
	s := string(key)
	if len(d.names) < 16 {
		d.names = append(d.names, s)
	}
	return s
}

// cell reads one cell object.
func (d *exemplarDecoder) cell() (cell Cell, err error) {
	var (
		wildcard, hasConst, constOK bool
		name                        string
		val                         graph.Value
	)
	err = d.types.Keep(d.r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "const"):
			var err error
			hasConst = true
			val, constOK, err = graph.DecodeConstJSON(d.r)
			return err
		case jsonscan.FieldIs(key, "var"):
			return d.types.Keep(d.r.String(&name))
		case jsonscan.FieldIs(key, "wildcard"):
			return d.types.Keep(d.r.Bool(&wildcard))
		}
		return d.r.Skip(d.r.Depth())
	}))
	switch {
	case wildcard:
		return W(), err
	case name != "":
		return V(name), err
	case !hasConst:
		return Cell{Kind: noCell}, err
	case !constOK:
		return Cell{Kind: badConst}, err
	}
	return C(val), err
}

// constraint reads the element at index ci of a "constraints" array.
func (d *exemplarDecoder) constraint(ci int) error {
	var (
		op, right       string
		hasConst, valOK bool
		c               Constraint
	)
	err := d.r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "left"):
			return d.types.Keep(d.r.String(&c.Left))
		case jsonscan.FieldIs(key, "op"):
			return d.types.Keep(d.r.String(&op))
		case jsonscan.FieldIs(key, "right"):
			return d.types.Keep(d.r.String(&right))
		case jsonscan.FieldIs(key, "const"):
			var err error
			hasConst = true
			c.Val, valOK, err = graph.DecodeConstJSON(d.r)
			return err
		}
		return d.r.Skip(d.r.Depth())
	})
	var fault error
	c.Op, fault = graph.ParseOp(op)
	switch {
	case fault != nil:
	case right != "":
		c.IsVar, c.Right, c.Val = true, right, graph.Value{}
	case !hasConst:
		fault = fmt.Errorf("needs right or const")
	case !valOK:
		fault = fmt.Errorf("value is neither number nor string")
	}
	if fault != nil && d.constraintFault == nil {
		d.constraintFault = fmt.Errorf("exemplar: constraint %d: %w", ci, fault)
	}
	d.constraints = append(d.constraints, c)
	return d.types.Keep(err)
}
