package graph

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"wqe/internal/jsonscan"
)

// jsonNode / jsonEdge define the on-disk JSON shape used by the CLI
// tools. Attribute values are serialized as raw JSON scalars: numbers
// stay numbers, everything else is a string.
type jsonNode struct {
	ID    int                        `json:"id"`
	Label string                     `json:"label"`
	Attrs map[string]json.RawMessage `json:"attrs,omitempty"`
}

type jsonEdge struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Label string `json:"label,omitempty"`
}

// JSON is v's JSON text: a Number as a JSON number, anything else as a
// JSON string of its Str. It is the one encoding of a value in the
// graph, query and exemplar documents. It fails on a NaN or an infinite
// number, which JSON cannot hold.
func (v Value) JSON() (json.RawMessage, error) {
	if v.Kind == Number {
		return json.Marshal(v.Num)
	}
	return json.Marshal(v.Str)
}

// WriteJSON serializes the graph. Output is streamed — nodes and edges
// are encoded one element at a time, so the writer's memory is O(1) in
// the graph size — and deterministic (json.Marshal sorts map keys). A
// "meta" header with exact element counts comes first so ReadJSON can
// size the arenas from it.
func (g *Graph) WriteJSON(w io.Writer) error {
	sw := &stickyWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	attrEntries := 0
	for i := 0; i < g.NumNodes(); i++ {
		attrEntries += len(g.Tuple(NodeID(i)))
	}
	sw.str(fmt.Sprintf("{\n \"meta\": {\"nodes\": %d, \"edges\": %d, \"attr_entries\": %d},\n \"nodes\": [",
		g.NumNodes(), g.NumEdges(), attrEntries))
	for i := 0; i < g.NumNodes(); i++ {
		v := NodeID(i)
		tuple := g.Tuple(v)
		attrs := make(map[string]json.RawMessage, len(tuple))
		for _, c := range tuple {
			raw, err := g.Value(c).JSON()
			if err != nil {
				return fmt.Errorf("graph: marshal attr %q of node %d: %w",
					g.Attrs.Name(c.Attr), i, err)
			}
			attrs[g.Attrs.Name(c.Attr)] = raw
		}
		enc, err := json.Marshal(jsonNode{ID: i, Label: g.Label(v), Attrs: attrs})
		if err != nil {
			return fmt.Errorf("graph: marshal node %d: %w", i, err)
		}
		if i > 0 {
			sw.str(",")
		}
		sw.str("\n  ")
		sw.raw(enc)
	}
	sw.str("\n ],\n \"edges\": [")
	wrote := 0
	for i := 0; i < g.NumNodes(); i++ {
		for _, e := range g.Out(NodeID(i)) {
			enc, err := json.Marshal(jsonEdge{Src: i, Dst: int(e.To), Label: g.Labels.Name(e.Label)})
			if err != nil {
				return fmt.Errorf("graph: marshal edge %d→%d: %w", i, e.To, err)
			}
			if wrote > 0 {
				sw.str(",")
			}
			wrote++
			sw.str("\n  ")
			sw.raw(enc)
		}
	}
	sw.str("\n ]\n}\n")
	if sw.err != nil {
		return fmt.Errorf("graph: write: %w", sw.err)
	}
	return sw.bw.Flush()
}

// stickyWriter wraps a bufio.Writer with first-error capture, so the
// hot emit loop stays straight-line and the error surfaces once at the
// end (bufio's own errors are sticky in the same way).
type stickyWriter struct {
	bw  *bufio.Writer
	err error
}

func (sw *stickyWriter) str(s string) {
	if sw.err == nil {
		_, sw.err = sw.bw.WriteString(s)
	}
}

func (sw *stickyWriter) raw(b []byte) {
	if sw.err == nil {
		_, sw.err = sw.bw.Write(b)
	}
}

// ReadJSON parses a graph in the shape WriteJSON writes, or authored by
// hand in it:
//
//	{"meta":  {"nodes": 2, "edges": 1, "attr_entries": 1},
//	 "nodes": [{"id": 0, "label": "A", "attrs": {"price": 9.5}},
//	           {"id": 1, "label": "B"}],
//	 "edges": [{"src": 0, "dst": 1, "label": "e"}]}
//
// The input is one JSON object, and reading stops at its closing brace.
// Its keys are matched exactly: "meta" is optional and only pre-sizes
// the arenas, as far as the input bears its counts out (grow); "nodes"
// and "edges" are arrays, either may come first, and a second copy of
// either adds to the first; any other key is skipped. Inside an element
// the keys "id", "label" and "attrs" (of a node), "src", "dst" and
// "label" (of an edge), and "nodes", "edges" and "attr_entries" (of
// meta) match case-insensitively, folded as encoding/json folds them
// (bytes.EqualFold: "ID" is "id", and so is "ſrc" "src"); other keys
// are skipped. Skipped values must still be valid JSON, nested at most
// 10000 deep counting the element around them. A key given twice in one
// element takes its last value; a second "attrs" object merges into the
// first, and "attrs": null drops what came before. A missing key, a
// "label": null, and a null element read as the zero value. The node at
// index i of a "nodes" array must have id i; ids, edge ends and meta
// counts are JSON integers (no fraction, no exponent); attribute values
// are JSON numbers (finite float64) or strings; labels are strings. An
// edge's ends must be ids of nodes read before it when a "nodes" array
// came before it, else of nodes read by the end of the input.
//
// The input is read once, in 64 KB refills, by internal/jsonscan, with
// no reflection; it checks JSON's grammar as encoding/json's scanner
// does, decodes strings by encoding/json's rules (escapes, surrogate
// pairs, each byte of invalid UTF-8 as U+FFFD), and numbers are
// converted with strconv. The one difference from the encoding/json walk
// this reader replaced: null is an error for an id, an edge's src or
// dst, and an attribute value, where the walk read it as 0 (when a later
// duplicate key overrides the null, it is not an error). The graph is
// made by Builder.Build, so it refuses what Build refuses (an attribute
// name holding "=") and stores -0 as 0.
func ReadJSON(r io.Reader) (*Graph, error) {
	d := &jsonReader{sc: *jsonscan.NewReader(r), b: NewBuilder()}
	if err := d.document(); err != nil {
		var se *jsonscan.Error
		switch {
		case !errors.As(err, &se):
			return nil, err
		case se.Err != nil:
			return nil, fmt.Errorf("graph: %w", err)
		}
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return d.b.Build()
}

// jsonFirstReserve caps what a "meta" count reserves when the first
// element of an arena arrives: a 40-byte header may claim 10¹⁰ nodes.
// Files of up to this many elements per arena still get one allocation
// each.
const jsonFirstReserve = 1 << 16

// errNull is wrapped by the error for a null where a number is needed.
var errNull = errors.New("null")

// jsonReader reads ReadJSON's input through sc and adds what it reads to
// b.
type jsonReader struct {
	sc jsonscan.Reader
	b  *Builder

	nodesSeen bool
	pending   []pendingEdge // edges read before any "nodes" array

	// The "meta" counts: nodes, edges and attribute entries the header
	// claims. grow reserves toward them as the elements arrive.
	hintNodes, hintEdges, hintAttrs int

	// Buffers reused across elements.
	label []byte     // the element's label
	names []byte     // the node's attribute names, back to back
	attrs []jsonAttr // the node's attributes, in input order
}

// pendingEdge is an edge that arrived before the nodes: it can neither
// be range-checked nor have its label interned yet (interning early
// would permute label ids relative to the node-first order).
type pendingEdge struct {
	src, dst int
	label    []byte
}

// jsonAttr is one attribute as read. A value encoding/json would reject
// is only an error if no later duplicate of its name replaces it.
type jsonAttr struct {
	name  [2]int // names[name[0]:name[1]]
	val   Value
	fault byte
}

// jsonAttr faults; 0 is none.
const (
	attrNull byte = 1 + iota
	attrNotScalar
)

// document reads the top-level object and adds the edges that came
// before the nodes.
func (d *jsonReader) document() error {
	err := d.sc.Object(func(key []byte) error {
		switch string(key) {
		case "meta":
			return d.meta()
		case "nodes":
			if err := d.sc.Array(d.node); err != nil {
				return err
			}
			d.nodesSeen = true
			return nil
		case "edges":
			return d.sc.Array(d.edge)
		}
		return d.sc.Skip(0)
	})
	if err != nil {
		return err
	}
	for _, e := range d.pending {
		if err := d.addEdge(e.src, e.dst, e.label); err != nil {
			return err
		}
	}
	return nil
}

// meta reads the optional size header and reserves the arenas.
func (d *jsonReader) meta() error {
	var nodes, edges, attrs int
	err := d.element(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "nodes"):
			return d.intField(&nodes, nil)
		case jsonscan.FieldIs(key, "edges"):
			return d.intField(&edges, nil)
		case jsonscan.FieldIs(key, "attr_entries"):
			return d.intField(&attrs, nil)
		}
		return d.sc.Skip(1)
	})
	if err != nil {
		return err
	}
	d.hintNodes, d.hintEdges, d.hintAttrs = nodes, edges, attrs
	return nil
}

// grow returns how many elements to reserve beyond the n an arena of
// capacity c holds, before k more are appended, under a "meta" claim of
// hint: once the arena is full, up to min(hint, jsonFirstReserve) for
// its first elements and min(hint, 2n) after that. 0 leaves the growth
// to append — when there is room, when the claim is exhausted, or when
// the claim would not hold the k. An honest header thus reaches its
// exact counts in one allocation, or a few doublings past
// jsonFirstReserve, and a false one costs at most that first reservation
// or twice what the input held.
func grow(n, c, k, hint int) int {
	if n+k <= c {
		return 0
	}
	if target := min(hint, max(2*n, jsonFirstReserve)); target >= n+k {
		return target - n
	}
	return 0
}

// node reads the element at index i of a "nodes" array and adds it.
func (d *jsonReader) node(i int) error {
	var id int
	var idNull bool
	d.label = d.label[:0]
	d.names = d.names[:0]
	d.attrs = d.attrs[:0]
	err := d.element(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "id"):
			return d.intField(&id, &idNull)
		case jsonscan.FieldIs(key, "label"):
			return d.labelField()
		case jsonscan.FieldIs(key, "attrs"):
			return d.attrsField()
		}
		return d.sc.Skip(1)
	})
	if err != nil {
		return err
	}
	if idNull {
		return fmt.Errorf("graph: node %d: id is %w", i, errNull)
	}
	if id != i {
		return fmt.Errorf("graph: node ids must be dense 0..n-1, got %d at index %d", id, i)
	}
	return d.addNode(i)
}

// addNode appends the node just read: its attributes are interned in
// name order — the order AddNode interns in, so a load is
// interner-identical to one through the encoding/json walk — and its
// tuple sorted by attribute id.
func (d *jsonReader) addNode(i int) error {
	b := d.b
	attrs := d.attrs
	b.reserve(grow(len(b.labels), cap(b.labels), 1, d.hintNodes), 0,
		grow(len(b.attrArena), cap(b.attrArena), len(attrs), d.hintAttrs))
	name := func(a jsonAttr) []byte { return d.names[a.name[0]:a.name[1]] }
	sorted := true
	for k := 1; k < len(attrs) && sorted; k++ {
		sorted = bytes.Compare(name(attrs[k-1]), name(attrs[k])) < 0
	}
	if !sorted {
		slices.SortStableFunc(attrs, func(a, b jsonAttr) int { return bytes.Compare(name(a), name(b)) })
	}
	start := len(b.attrArena)
	for k, a := range attrs {
		if k+1 < len(attrs) && bytes.Equal(name(a), name(attrs[k+1])) {
			continue // a later duplicate wins
		}
		switch a.fault {
		case attrNull:
			return fmt.Errorf("graph: attr %q of node %d is %w", name(a), i, errNull)
		case attrNotScalar:
			return fmt.Errorf("graph: attr %q of node %d is neither number nor string", name(a), i)
		}
		b.attrArena = append(b.attrArena, AttrValue{Attr: intern(b.Attrs, name(a)), Val: a.val})
	}
	tuple := b.attrArena[start:]
	if !slices.IsSortedFunc(tuple, cmpAttr) {
		slices.SortFunc(tuple, cmpAttr)
	}
	b.labels = append(b.labels, intern(b.Labels, d.label))
	b.attrOff = append(b.attrOff, int32(len(b.attrArena)))
	return nil
}

func cmpAttr(a, b AttrValue) int { return int(a.Attr) - int(b.Attr) }

// edge reads the element at index i of an "edges" array and adds it, or
// holds it until the nodes have been read.
func (d *jsonReader) edge(i int) error {
	var src, dst int
	var srcNull, dstNull bool
	d.label = d.label[:0]
	err := d.element(func(key []byte) error {
		switch {
		case jsonscan.FieldIs(key, "src"):
			return d.intField(&src, &srcNull)
		case jsonscan.FieldIs(key, "dst"):
			return d.intField(&dst, &dstNull)
		case jsonscan.FieldIs(key, "label"):
			return d.labelField()
		}
		return d.sc.Skip(1)
	})
	switch {
	case err != nil:
		return err
	case srcNull:
		return fmt.Errorf("graph: edge %d: src is %w", i, errNull)
	case dstNull:
		return fmt.Errorf("graph: edge %d: dst is %w", i, errNull)
	case !d.nodesSeen:
		d.pending = append(d.pending, pendingEdge{src, dst, append([]byte(nil), d.label...)})
		return nil
	}
	return d.addEdge(src, dst, d.label)
}

func (d *jsonReader) addEdge(src, dst int, label []byte) error {
	b := d.b
	if src < 0 || src >= b.NumNodes() || dst < 0 || dst >= b.NumNodes() {
		return fmt.Errorf("graph: edge %d→%d out of range", src, dst)
	}
	b.reserve(0, grow(len(b.edgeLog), cap(b.edgeLog), 1, d.hintEdges), 0)
	b.edgeLog = append(b.edgeLog, rawEdge{From: NodeID(src), To: NodeID(dst), Label: intern(b.Labels, label)})
	return nil
}

// intern returns the id of name, allocating only for a name not seen
// before.
func intern(in *Interner, name []byte) int32 {
	if id, ok := in.Lookup(string(name)); ok {
		return id
	}
	return in.Intern(string(name))
}

// element reads one element of the nodes or edges array, or the meta
// object: an object, or null, which reads as an object with no keys.
func (d *jsonReader) element(field func(key []byte) error) error {
	c, err := d.sc.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.sc.Lit("null")
	case c != '{':
		return d.sc.Errorf("expected an object or null, found %q", c)
	}
	return d.sc.Object(field)
}

// intField reads an integer field into *dst. null leaves *dst as it
// was and, when isNull is not nil, is recorded there.
func (d *jsonReader) intField(dst *int, isNull *bool) error {
	c, err := d.sc.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		if isNull != nil {
			*isNull = true
		}
		return d.sc.Lit("null")
	case !jsonscan.IsNumStart(c):
		return d.sc.Errorf("expected an integer")
	}
	tok, err := d.sc.Num()
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(string(tok))
	if err != nil {
		return d.sc.Errorf("%s is not an integer", tok)
	}
	*dst = v
	if isNull != nil {
		*isNull = false
	}
	return nil
}

// labelField reads a label into d.label; null keeps the label before it.
func (d *jsonReader) labelField() error {
	c, err := d.sc.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.sc.Lit("null")
	case c != '"':
		return d.sc.Errorf("label is not a string")
	}
	s, err := d.sc.Str()
	d.label = append(d.label[:0], s...)
	return err
}

// attrsField reads an "attrs" object into d.names and d.attrs, after
// what an earlier "attrs" of the same node put there; null drops that.
func (d *jsonReader) attrsField() error {
	c, err := d.sc.Next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		d.names, d.attrs = d.names[:0], d.attrs[:0]
		return d.sc.Lit("null")
	case c != '{':
		return d.sc.Errorf("attrs is not an object")
	}
	return d.sc.Object(func(key []byte) error {
		a := jsonAttr{name: [2]int{len(d.names), len(d.names) + len(key)}}
		d.names = append(d.names, key...)
		c, err := d.sc.Next()
		switch {
		case err != nil:
			return err
		case c == '"':
			var s []byte
			if s, err = d.sc.Str(); err == nil {
				a.val = S(string(s))
			}
		case jsonscan.IsNumStart(c):
			var tok []byte
			if tok, err = d.sc.Num(); err == nil {
				f, perr := strconv.ParseFloat(string(tok), 64)
				a.val = N(f)
				if perr != nil {
					a.fault = attrNotScalar
				}
			}
		case c == 'n':
			a.fault = attrNull
			err = d.sc.Lit("null")
		default:
			a.fault = attrNotScalar
			err = d.sc.Skip(2)
		}
		d.attrs = append(d.attrs, a)
		return err
	})
}

// DecodeConstJSON reads the constant of a query literal, an exemplar
// cell or an exemplar constraint as encoding/json read it through a
// RawMessage into a float64, then a string: a number as a Number, a
// string as a String, and null as the Number 0 (decoding null into a
// float64 left it 0). ok is false, the value consumed, for a number
// beyond float64's range and for any other kind of value.
func DecodeConstJSON(r *jsonscan.Reader) (v Value, ok bool, err error) {
	c, err := r.Next()
	switch {
	case err != nil:
		return Value{}, false, err
	case c == '"':
		s, err := r.Str()
		return S(string(s)), err == nil, err
	case jsonscan.IsNumStart(c):
		tok, err := r.Num()
		if err != nil {
			return Value{}, false, err
		}
		f, perr := strconv.ParseFloat(string(tok), 64)
		return N(f), perr == nil, nil
	case c == 'n':
		return N(0), true, r.Lit("null")
	}
	return Value{}, false, r.Skip(r.Depth())
}
