package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"wqe/internal/graph"
	"wqe/internal/jsonscan"
)

// jsonQuery is the on-disk shape used by the CLI tools:
//
//	{
//	  "focus": 0,
//	  "nodes": [
//	    {"label": "Cellphone",
//	     "literals": [{"attr": "Price", "op": ">=", "value": 840}]},
//	    {"label": "Carrier"}
//	  ],
//	  "edges": [{"from": 1, "to": 0, "bound": 1}]
//	}
type jsonQuery struct {
	Focus int        `json:"focus"`
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Label    string        `json:"label"`
	Literals []jsonLiteral `json:"literals,omitempty"`
}

type jsonLiteral struct {
	Attr  string          `json:"attr"`
	Op    string          `json:"op"`
	Value json.RawMessage `json:"value"`
}

type jsonEdge struct {
	From  int `json:"from"`
	To    int `json:"to"`
	Bound int `json:"bound"`
}

// WriteJSON serializes the query.
func (q *Query) WriteJSON(w io.Writer) error {
	jq := jsonQuery{Focus: int(q.Focus)}
	for _, n := range q.Nodes {
		jn := jsonNode{Label: n.Label}
		for _, l := range n.Literals {
			raw, err := l.Val.JSON()
			if err != nil {
				return err
			}
			jn.Literals = append(jn.Literals, jsonLiteral{Attr: l.Attr, Op: l.Op.String(), Value: raw})
		}
		jq.Nodes = append(jq.Nodes, jn)
	}
	for _, e := range q.Edges {
		jq.Edges = append(jq.Edges, jsonEdge{From: int(e.From), To: int(e.To), Bound: e.Bound})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jq)
}

// ReadJSON parses a query in the WriteJSON shape and validates it: one
// JSON value is read from r (DecodeJSON), and what follows it is not.
func ReadJSON(r io.Reader) (*Query, error) {
	q, err := DecodeJSON(jsonscan.NewReaderSize(r, 4<<10))
	var se *jsonscan.Error
	if errors.As(err, &se) {
		return nil, fmt.Errorf("query: decode: %w", err)
	}
	return q, err
}

// DecodeJSON reads a query in the WriteJSON shape from r, builds it and
// validates it. It reads as encoding/json decoded the document into the
// WriteJSON structs, with one documented difference: keys match the
// field names case-insensitively (jsonscan.FieldIs), other keys are
// skipped, a key given twice takes its last value, null leaves a field
// as it was and empties a list, a null node, literal or edge has no
// keys, "value" is a number, a string, or null for the number 0, and a
// value of the wrong kind fails the query once the document is read.
// The difference: a second "nodes", "literals" or "edges" array replaces
// the first, where encoding/json decoded it element by element into the
// first one's elements.
//
// A *jsonscan.Error means that the input is not JSON, and r stopped where
// it failed; any other error is about the query, and r has read the
// whole document.
func DecodeJSON(r *jsonscan.Reader) (*Query, error) {
	d := queryDecoder{r: r}
	if err := r.Struct(d.field); d.types.Keep(err) != nil {
		return nil, err
	}
	switch {
	case d.types.Err != nil:
		return nil, fmt.Errorf("query: decode: %w", d.types.Err)
	case d.fault != nil:
		return nil, d.fault
	}
	q := &Query{Nodes: d.nodes, Edges: d.edges, Focus: NodeID(d.focus)}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// queryDecoder holds a query document as DecodeJSON reads it.
type queryDecoder struct {
	r     *jsonscan.Reader
	types jsonscan.Sticky // the first value of the wrong kind

	focus int
	nodes []Node
	edges []Edge

	// fault is the first literal of the nodes that names no operator or
	// holds no constant; nodeFault is the first of the node being read.
	fault, nodeFault error
}

func (d *queryDecoder) field(key []byte) error {
	r := d.r
	switch {
	case jsonscan.FieldIs(key, "focus"):
		return d.types.Keep(r.Int(&d.focus))
	case jsonscan.FieldIs(key, "nodes"):
		d.nodes, d.fault = nil, nil
		return d.types.Keep(r.List(d.node))
	case jsonscan.FieldIs(key, "edges"):
		d.edges = nil
		return d.types.Keep(r.List(d.edge))
	}
	return r.Skip(r.Depth())
}

func (d *queryDecoder) node(int) error {
	var n Node
	d.nodeFault = nil
	err := d.r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "label"):
			return d.types.Keep(d.r.String(&n.Label))
		case jsonscan.FieldIs(key, "literals"):
			n.Literals, d.nodeFault = nil, nil
			return d.types.Keep(d.r.List(func(int) error { return d.literal(&n) }))
		}
		return d.r.Skip(d.r.Depth())
	})
	if d.fault == nil {
		d.fault = d.nodeFault
	}
	d.nodes = append(d.nodes, n)
	return d.types.Keep(err)
}

// literal reads one element of a "literals" array and adds it to n.
func (d *queryDecoder) literal(n *Node) error {
	var (
		attr, op string
		val      graph.Value
		valOK    bool
	)
	err := d.r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "attr"):
			return d.types.Keep(d.r.String(&attr))
		case jsonscan.FieldIs(key, "op"):
			return d.types.Keep(d.r.String(&op))
		case jsonscan.FieldIs(key, "value"):
			var err error
			val, valOK, err = graph.DecodeConstJSON(d.r)
			return err
		}
		return d.r.Skip(d.r.Depth())
	})
	o, oerr := graph.ParseOp(op)
	switch {
	case d.nodeFault != nil:
	case oerr != nil:
		d.nodeFault = oerr
	case !valOK:
		d.nodeFault = fmt.Errorf("query: literal value is neither number nor string")
	}
	n.Literals = append(n.Literals, Literal{Attr: attr, Op: o, Val: val})
	return d.types.Keep(err)
}

func (d *queryDecoder) edge(int) error {
	var from, to, bound int
	err := d.r.Struct(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "from"):
			return d.types.Keep(d.r.Int(&from))
		case jsonscan.FieldIs(key, "to"):
			return d.types.Keep(d.r.Int(&to))
		case jsonscan.FieldIs(key, "bound"):
			return d.types.Keep(d.r.Int(&bound))
		}
		return d.r.Skip(d.r.Depth())
	})
	d.edges = append(d.edges, Edge{From: NodeID(from), To: NodeID(to), Bound: max(bound, 1)})
	return d.types.Keep(err)
}
