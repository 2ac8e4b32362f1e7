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
		for _, av := range tuple {
			var raw []byte
			var err error
			if av.Val.Kind == Number {
				raw, err = json.Marshal(av.Val.Num)
			} else {
				raw, err = json.Marshal(av.Val.Str)
			}
			if err != nil {
				return fmt.Errorf("graph: marshal attr %q of node %d: %w",
					g.Attrs.Name(av.Attr), i, err)
			}
			attrs[g.Attrs.Name(av.Attr)] = raw
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
// The scanner reads r once, in 64 KB refills, with no reflection; it
// checks JSON's grammar as encoding/json's scanner does and converts
// numbers with strconv. Strings holding a backslash or a byte >= 0x80
// are decoded by encoding/json itself, so escapes, surrogate pairs and
// invalid UTF-8 (each bad byte becomes U+FFFD) read exactly as before.
// The one difference from the encoding/json walk this reader replaced:
// null is an error for an id, an edge's src or dst, and an attribute
// value, where the walk read it as 0 (when a later duplicate key
// overrides the null, it is not an error).
func ReadJSON(r io.Reader) (*Graph, error) {
	d := &jsonReader{r: r, buf: make([]byte, 0, jsonBufSize), g: New()}
	if err := d.document(); err != nil {
		return nil, err
	}
	return d.g, nil
}

const (
	jsonBufSize = 64 << 10
	// jsonFirstReserve caps what a "meta" count reserves when the first
	// element of an arena arrives: a 40-byte header may claim 10¹⁰
	// nodes. Files of up to this many elements per arena still get one
	// allocation each.
	jsonFirstReserve = 1 << 16
	// jsonMaxDepth is encoding/json's nesting limit, counted over what it
	// scanned as one value: a whole node, edge or meta object, or one
	// top-level value.
	jsonMaxDepth = 10000
)

// errNull is wrapped by the error for a null where a number is needed.
var errNull = errors.New("null")

// jsonReader scans ReadJSON's input and adds what it reads to g.
// buf[pos:] holds input read but not yet consumed; a slice of buf a
// method returns is valid until the next fill.
type jsonReader struct {
	r    io.Reader
	buf  []byte
	pos  int
	off  int64 // input offset of buf[0]
	rerr error // why r stopped: io.EOF at the end of input
	g    *Graph

	nodesSeen bool
	pending   []pendingEdge // edges read before any "nodes" array

	// The "meta" counts: nodes, edges and attribute entries the header
	// claims. grow reserves toward them as the elements arrive.
	hintNodes, hintEdges, hintAttrs int

	// Buffers reused across elements.
	key   []byte     // a key read before a fill, unescaped
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
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "meta":
			return d.meta()
		case "nodes":
			if err := d.array(d.node); err != nil {
				return err
			}
			d.nodesSeen = true
			return nil
		case "edges":
			return d.array(d.edge)
		}
		return d.skip(0)
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
		case fieldIs(key, "nodes"):
			return d.intField(&nodes, nil)
		case fieldIs(key, "edges"):
			return d.intField(&edges, nil)
		case fieldIs(key, "attr_entries"):
			return d.intField(&attrs, nil)
		}
		return d.skip(1)
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
		case fieldIs(key, "id"):
			return d.intField(&id, &idNull)
		case fieldIs(key, "label"):
			return d.labelField()
		case fieldIs(key, "attrs"):
			return d.attrsField()
		}
		return d.skip(1)
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
// tuple sorted by attribute id. The graph is new and born dirty, and
// nothing reads it during the load, so there is no cache to invalidate.
func (d *jsonReader) addNode(i int) error {
	g := d.g
	attrs := d.attrs
	g.Reserve(grow(len(g.labels), cap(g.labels), 1, d.hintNodes), 0,
		grow(len(g.attrArena), cap(g.attrArena), len(attrs), d.hintAttrs))
	name := func(a jsonAttr) []byte { return d.names[a.name[0]:a.name[1]] }
	sorted := true
	for k := 1; k < len(attrs) && sorted; k++ {
		sorted = bytes.Compare(name(attrs[k-1]), name(attrs[k])) < 0
	}
	if !sorted {
		slices.SortStableFunc(attrs, func(a, b jsonAttr) int { return bytes.Compare(name(a), name(b)) })
	}
	start := len(g.attrArena)
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
		g.attrArena = append(g.attrArena, AttrValue{Attr: intern(g.Attrs, name(a)), Val: a.val})
	}
	tuple := g.attrArena[start:]
	if !slices.IsSortedFunc(tuple, cmpAttr) {
		slices.SortFunc(tuple, cmpAttr)
	}
	g.labels = append(g.labels, intern(g.Labels, d.label))
	g.attrOff = append(g.attrOff, int32(len(g.attrArena)))
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
		case fieldIs(key, "src"):
			return d.intField(&src, &srcNull)
		case fieldIs(key, "dst"):
			return d.intField(&dst, &dstNull)
		case fieldIs(key, "label"):
			return d.labelField()
		}
		return d.skip(1)
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
	g := d.g
	if src < 0 || src >= g.NumNodes() || dst < 0 || dst >= g.NumNodes() {
		return fmt.Errorf("graph: edge %d→%d out of range", src, dst)
	}
	g.Reserve(0, grow(len(g.edgeLog), cap(g.edgeLog), 1, d.hintEdges), 0)
	g.edgeLog = append(g.edgeLog, rawEdge{From: NodeID(src), To: NodeID(dst), Label: intern(g.Labels, label)})
	g.edges++
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
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.lit("null")
	case c != '{':
		return d.errorf("expected an object or null, found %q", c)
	}
	return d.object(field)
}

// intField reads an integer field into *dst. null leaves *dst as it
// was and, when isNull is not nil, is recorded there.
func (d *jsonReader) intField(dst *int, isNull *bool) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		if isNull != nil {
			*isNull = true
		}
		return d.lit("null")
	case c != '-' && !isDigit(int(c)):
		return d.errorf("expected an integer")
	}
	tok, err := d.num()
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(string(tok))
	if err != nil {
		return d.errorf("%s is not an integer", tok)
	}
	*dst = v
	if isNull != nil {
		*isNull = false
	}
	return nil
}

// labelField reads a label into d.label; null keeps the label before it.
func (d *jsonReader) labelField() error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.lit("null")
	case c != '"':
		return d.errorf("label is not a string")
	}
	s, err := d.strBytes()
	d.label = append(d.label[:0], s...)
	return err
}

// attrsField reads an "attrs" object into d.names and d.attrs, after
// what an earlier "attrs" of the same node put there; null drops that.
func (d *jsonReader) attrsField() error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		d.names, d.attrs = d.names[:0], d.attrs[:0]
		return d.lit("null")
	case c != '{':
		return d.errorf("attrs is not an object")
	}
	return d.object(func(key []byte) error {
		a := jsonAttr{name: [2]int{len(d.names), len(d.names) + len(key)}}
		d.names = append(d.names, key...)
		c, err := d.next()
		switch {
		case err != nil:
			return err
		case c == '"':
			var s []byte
			if s, err = d.strBytes(); err == nil {
				a.val = S(string(s))
			}
		case c == '-' || isDigit(int(c)):
			var tok []byte
			if tok, err = d.num(); err == nil {
				f, perr := strconv.ParseFloat(string(tok), 64)
				a.val = N(f)
				if perr != nil {
					a.fault = attrNotScalar
				}
			}
		case c == 'n':
			a.fault = attrNull
			err = d.lit("null")
		default:
			a.fault = attrNotScalar
			err = d.skip(2)
		}
		d.attrs = append(d.attrs, a)
		return err
	})
}

// object reads an object, the reader at its '{', calling field with
// each key, unescaped, once the reader is at the key's value. field
// must consume the value, and read the key before it does: the key may
// lie in buf.
func (d *jsonReader) object(field func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		if c != '"' {
			return d.errorf("expected a string key, found %q", c)
		}
		key, err := d.strBytes()
		if err != nil {
			return err
		}
		if d.pos < len(d.buf) && d.buf[d.pos] == ':' {
			d.pos++ // no fill since the key was read: it is still valid
		} else {
			d.key = append(d.key[:0], key...)
			if err := d.expect(':'); err != nil {
				return err
			}
			key = d.key
		}
		if err := field(key); err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		d.pos++
		switch c {
		case '}':
			return nil
		case ',':
			if c, err = d.next(); err != nil {
				return err
			}
		default:
			d.pos--
			return d.errorf("expected ',' or '}', found %q", c)
		}
	}
}

// array reads an array, the reader at its '[', calling elem with the
// index of each element once the reader is at it; elem must consume it.
func (d *jsonReader) array(elem func(i int) error) error {
	if err := d.expect('['); err != nil {
		return err
	}
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		d.pos++
		switch c {
		case ']':
			return nil
		case ',':
		default:
			d.pos--
			return d.errorf("expected ',' or ']', found %q", c)
		}
	}
}

// skip consumes one value of any kind, checking it as encoding/json's
// scanner would; depth is the number of containers already open around
// it in what that scanner would read as one value.
func (d *jsonReader) skip(depth int) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case '{', '[':
		if depth++; depth > jsonMaxDepth {
			return d.errorf("exceeded max depth")
		}
		if c == '{' {
			return d.object(func([]byte) error { return d.skip(depth) })
		}
		return d.array(func(int) error { return d.skip(depth) })
	case '"':
		_, _, err = d.str()
		return err
	case 't':
		return d.lit("true")
	case 'f':
		return d.lit("false")
	case 'n':
		return d.lit("null")
	}
	_, err = d.num()
	return err
}

// next skips whitespace and returns the byte after it, unconsumed.
func (d *jsonReader) next() (byte, error) {
	for {
		buf, i := d.buf, d.pos
		for ; i < len(buf); i++ {
			if c := buf[i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
				d.pos = i
				return c, nil
			}
		}
		d.pos = i
		if !d.fill() {
			return 0, d.errorf("unexpected end of input")
		}
	}
}

// expect consumes the byte want, after whitespace.
func (d *jsonReader) expect(want byte) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c != want {
		return d.errorf("expected %q, found %q", want, c)
	}
	d.pos++
	return nil
}

// lit consumes the literal word (true, false or null).
func (d *jsonReader) lit(word string) error {
	if !d.avail(len(word)) {
		return d.errorf("unexpected end of input")
	}
	if string(d.buf[d.pos:d.pos+len(word)]) != word {
		return d.errorf("invalid literal, expected %s", word)
	}
	d.pos += len(word)
	return nil
}

// strBytes consumes a string and returns its value: its content itself
// when plain, else what encoding/json decodes it to.
func (d *jsonReader) strBytes() ([]byte, error) {
	tok, plain, err := d.str()
	if err != nil {
		return nil, err
	}
	if plain {
		return tok[1 : len(tok)-1], nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return []byte(s), nil
}

// str consumes a string, checking it as encoding/json's scanner does,
// and returns it with its quotes. plain reports that it holds no
// backslash and no byte >= 0x80, so that its content is its value.
func (d *jsonReader) str() (tok []byte, plain bool, err error) {
	plain = true
	n := 1 // past the opening quote
	for {
		b := d.buf[d.pos:]
		for n < len(b) {
			c := b[n]
			n++
			if jsonPlain[c] {
				continue
			}
			switch {
			case c == '"':
				d.pos += n
				return b[:n], plain, nil
			case c < 0x20:
				return nil, false, d.errorf("invalid character %q in string", c)
			case c >= 0x80:
				plain = false
				continue
			}
			// A backslash: one of "\/bfnrt, or u and four hex digits.
			plain = false
			if !d.avail(n + 1) {
				return nil, false, d.errorf("unexpected end of input")
			}
			b = d.buf[d.pos:]
			switch b[n] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				n++
				continue
			case 'u':
				if !d.avail(n + 5) {
					return nil, false, d.errorf("unexpected end of input")
				}
				b = d.buf[d.pos:]
				for _, h := range b[n+1 : n+5] {
					if !isHex(h) {
						return nil, false, d.errorf("invalid \\u escape in string")
					}
				}
				n += 5
				continue
			}
			return nil, false, d.errorf("invalid escape \\%c in string", b[n])
		}
		if !d.fill() {
			return nil, false, d.errorf("unexpected end of input")
		}
	}
}

// jsonPlain marks the bytes that stand for themselves inside a string.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// num consumes a number, checking JSON's grammar, and returns its text.
func (d *jsonReader) num() ([]byte, error) {
	for {
		n, past := numLen(d.buf[d.pos:])
		if past && d.fill() {
			continue // the number may go on: scan it again, whole
		}
		if n < 0 {
			return nil, d.errorf("invalid number")
		}
		tok := d.buf[d.pos : d.pos+n]
		d.pos += n
		return tok, nil
	}
}

// numLen returns the length of the JSON number b starts with, or -1 if
// it starts with none; past reports that it had to look beyond b.
func numLen(b []byte) (n int, past bool) {
	at := func(i int) int {
		if i < len(b) {
			return int(b[i])
		}
		past = true
		return -1
	}
	if at(n) == '-' {
		n++
	}
	switch c := at(n); {
	case c == '0':
		n++
	case '1' <= c && c <= '9':
		for n++; isDigit(at(n)); n++ {
		}
	default:
		return -1, past
	}
	if at(n) == '.' {
		if n++; !isDigit(at(n)) {
			return -1, past
		}
		for n++; isDigit(at(n)); n++ {
		}
	}
	if c := at(n); c == 'e' || c == 'E' {
		if n++; at(n) == '+' || at(n) == '-' {
			n++
		}
		if !isDigit(at(n)) {
			return -1, past
		}
		for n++; isDigit(at(n)); n++ {
		}
	}
	return n, past
}

func isDigit(c int) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// fieldIs reports whether key names the field name as encoding/json
// matches struct fields: equal under bytes.EqualFold.
func fieldIs(key []byte, name string) bool {
	if len(key) == len(name) {
		for i, c := range key {
			if c != name[i] && (c|0x20 != name[i] || name[i] < 'a' || name[i] > 'z') {
				return false
			}
		}
		return true
	}
	// Only a longer key, holding a non-ASCII rune, can fold to an ASCII
	// name some other way ("ſ" to "s", "K" to "k").
	if len(key) < len(name) {
		return false
	}
	for _, c := range key {
		if c >= 0x80 {
			return bytes.EqualFold(key, []byte(name))
		}
	}
	return false
}

// avail makes at least n unconsumed bytes available, if the input has
// them.
func (d *jsonReader) avail(n int) bool {
	for len(d.buf)-d.pos < n {
		if !d.fill() {
			return false
		}
	}
	return true
}

// fill reads more input after the unconsumed bytes, first moving them
// to the front of buf and doubling buf if they fill it. It reports
// whether any byte was added; when none was, rerr says why.
func (d *jsonReader) fill() bool {
	if d.rerr != nil {
		return false
	}
	if d.pos > 0 {
		d.off += int64(d.pos)
		d.buf = d.buf[:copy(d.buf, d.buf[d.pos:])]
		d.pos = 0
	}
	if len(d.buf) == cap(d.buf) {
		d.buf = append(make([]byte, 0, 2*cap(d.buf)), d.buf...)
	}
	for range 100 { // bufio's bound on reads that return nothing
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	d.rerr = io.ErrNoProgress
	return false
}

// errorf reports bad input at the current offset, or the read error
// that cut the input short.
func (d *jsonReader) errorf(format string, args ...any) error {
	if d.rerr != nil && d.rerr != io.EOF {
		return fmt.Errorf("graph: read: %w", d.rerr)
	}
	return fmt.Errorf("graph: decode: %s at byte %d", fmt.Sprintf(format, args...), d.off+int64(d.pos))
}
