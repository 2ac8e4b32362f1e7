package graph

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

var negZero = math.Copysign(0, -1)

// edgeValues are the admitted values whose codes need care: both zeros,
// subnormals, ±MaxFloat64 (whose spread overflows), numbers beside
// strings that render alike, empty strings and strings that are not
// UTF-8, and payload a kind ignores.
func edgeValues() []Value {
	return []Value{
		N(0), N(negZero), N(-3), N(5), N(5.5),
		N(math.SmallestNonzeroFloat64), N(-math.SmallestNonzeroFloat64), N(math.MaxFloat64), N(-math.MaxFloat64),
		S(""), S("5"), S("NaN"), S("x"), S("y"), S("\xff"), S("\uFFFD"),
		{Kind: Number, Num: 5, Str: "five"}, {Kind: String, Num: 2, Str: "x"},
	}
}

// edgeTuples draws n nodes' labels and attributes from pools: "plain"
// and "word" hold ordinary numbers and strings, "mixed" both kinds,
// "edge" anything from edgeValues.
func edgeTuples(n int, seed int64) (labels []string, tuples []map[string]Value) {
	rng := rand.New(rand.NewSource(seed))
	edge := edgeValues()
	for i := 0; i < n; i++ {
		attrs := map[string]Value{"plain": N(float64(rng.Intn(12) - 4))}
		if rng.Intn(4) > 0 {
			attrs["word"] = S(string(rune('a' + rng.Intn(6))))
		}
		if rng.Intn(3) > 0 {
			attrs["mixed"] = []Value{N(1), N(2.5), N(-7), S("1"), S("b"), S("")}[rng.Intn(6)]
		}
		if rng.Intn(2) > 0 {
			attrs["edge"] = edge[rng.Intn(len(edge))]
		}
		labels = append(labels, []string{"A", "B"}[rng.Intn(2)])
		tuples = append(tuples, attrs)
	}
	return labels, tuples
}

// edgeGraph is a builder holding edgeTuples' nodes.
func edgeGraph(n int, seed int64) *Builder {
	labels, tuples := edgeTuples(n, seed)
	b := NewBuilder()
	for i, attrs := range tuples {
		b.AddNode(labels[i], attrs)
	}
	return b
}

// TestDomainWithNaNAndZeros: -0 and 0 are one domain value, stored as 0,
// however many of each there are; a NaN cell is refused.
func TestDomainWithNaNAndZeros(t *testing.T) {
	b := NewBuilder()
	for _, v := range []Value{N(5), N(0), N(negZero), S("s"), N(0), N(2), N(negZero)} {
		b.AddNode("P", map[string]Value{"x": v})
	}
	d := MustBuild(b).ActiveDomain("x")
	if !slices.Equal(d.Values, []Value{N(0), N(2), N(5), S("s")}) || math.Signbit(d.Values[0].Num) || d.Range() != 5 {
		t.Fatalf("domain = %v, range %v; want 0 2 5 s, range 5", d.Values, d.Range())
	}
	b.AddNode("P", map[string]Value{"x": N(2)})
	b.AddNode("P", map[string]Value{"x": N(math.NaN())})
	if g, err := b.Build(); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("a NaN cell built %v, %v", g, err)
	}
}

// doorInputs are TestCodesMirrorTuples' graphs, one tuple per node.
// Those with refused set are refused at each door, Build, ReadJSON and
// ReadSnapshot, with an error holding refused[i]; json and doctor are
// how ReadJSON and ReadSnapshot are handed them, and "" marks the door
// whose format cannot hold the input. The others are admitted,
// canonicalized.
var doorInputs = []struct {
	name    string
	nodes   []map[string]Value
	refused [3]string
	json    string
	doctor  func(*Graph, *Codes) // turns the snapshot of a graph holding a = 1 into the input
}{
	{name: "ordinary", nodes: []map[string]Value{{"a": N(1), "b": S("x")}, {"a": S("1"), "b": S("y")}, {"a": N(0)}}},
	{name: "one zero only", nodes: []map[string]Value{{"a": N(negZero)}, {"a": N(1)}}},
	{name: "both zeros", nodes: []map[string]Value{{"a": N(negZero), "b": N(0)}, {"a": N(0), "b": N(1)}}},
	{name: "string carrying NaN", nodes: []map[string]Value{{"a": {Kind: String, Num: math.NaN(), Str: "x"}}}},
	{name: "number carrying a string", nodes: []map[string]Value{{"a": N(5)}, {"a": {Kind: Number, Num: 5, Str: "v"}}, {"b": {Kind: Number, Num: 5, Str: "v"}}}},
	{name: "string carrying a number", nodes: []map[string]Value{{"a": S("x")}, {"a": {Kind: String, Num: 1, Str: "x"}}}},
	{
		name: "NaN", nodes: []map[string]Value{{"a": N(math.NaN()), "b": N(2)}, {"a": S("NaN"), "b": S("NaN")}},
		refused: [3]string{"NaN value", "invalid number", "NaN in the domain"},
		json:    `{"nodes":[{"id":0,"attrs":{"a":NaN}}]}`,
		doctor:  func(_ *Graph, c *Codes) { c.doms[1].Values[0] = N(math.NaN()) },
	},
	{
		name: "infinities", nodes: []map[string]Value{{"a": N(math.Inf(1)), "b": N(2)}, {"a": N(math.Inf(-1)), "b": N(3)}},
		refused: [3]string{"infinite value", "neither number nor string", "-Inf in the domain"},
		json:    `{"nodes":[{"id":0,"attrs":{"a":1e999}}]}`,
		doctor:  func(_ *Graph, c *Codes) { c.doms[1].Values[0] = N(math.Inf(-1)) },
	},
	{
		name: "neither kind", nodes: []map[string]Value{{"a": {Kind: 7, Str: "x"}, "b": N(1)}},
		refused: [3]string{"neither kind", "neither number nor string", ""},
		json:    `{"nodes":[{"id":0,"attrs":{"a":true}}]}`,
	},
	{
		name: "name holding =", nodes: []map[string]Value{{"k=v": S("w"), "k": S("v=w"), "kk": S("v"), "k=": N(1)}},
		refused: [3]string{`"k=" holds "="`, `"k=" holds "="`, `"k=v" holds "="`},
		json:    `{"nodes":[{"id":0,"attrs":{"k=v":"w","k":"v=w","kk":"v","k=":1}}]}`,
		doctor:  func(g *Graph, _ *Codes) { g.Attrs = namesOf("a", "k=v") },
	},
	{
		name: "name beginning another", nodes: []map[string]Value{{"a=b=c": N(1), "a=b": N(1), "a": N(1), "b": N(1), "=": N(1)}},
		refused: [3]string{`"=" holds "="`, `"=" holds "="`, `"a=b" holds "="`},
		json:    `{"nodes":[{"id":0,"attrs":{"a=b=c":1,"a=b":1,"a":1,"b":1,"=":1}}]}`,
		doctor:  func(g *Graph, _ *Codes) { g.Attrs = namesOf("a", "a=b") },
	},
}

// namesOf is a name table holding "" and then names, id by id: the
// test's own table for a graph, since nothing reachable from a Graph can
// add a name to the one Build gave it.
func namesOf(names ...string) *Names {
	in := NewInterner()
	for _, n := range names {
		in.Intern(n)
	}
	return &in.Names
}

// TestCodesMirrorTuples: every cell a graph holds, read back through
// Graph.Value, is the canonical form of the value its node was given —
// by the Builder, or after a JSON or snapshot round trip — and codes are
// equal where the engine's equality test holds and ordered as Compare
// orders. An input holding what the graph's door refuses is refused by
// every door that can be handed it.
func TestCodesMirrorTuples(t *testing.T) {
	inputs := map[string][]map[string]Value{}
	_, inputs["edgeGraph"] = edgeTuples(400, 3)
	for _, tc := range doorInputs {
		if tc.refused[0] == "" {
			inputs[tc.name] = tc.nodes
		}
	}
	paths := []struct {
		name string
		// keep reports whether the path's file can hold the value.
		keep func(Value) bool
		load func(*testing.T, *Graph) *Graph
	}{
		{"Build", func(Value) bool { return true }, func(_ *testing.T, g *Graph) *Graph { return g }},
		{"ReadJSON", func(v Value) bool { return v.Kind != String || utf8.ValidString(v.Str) },
			func(t *testing.T, g *Graph) *Graph {
				var buf bytes.Buffer
				if err := g.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				got, err := ReadJSON(&buf)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}},
		{"ReadSnapshot", func(Value) bool { return true },
			func(t *testing.T, g *Graph) *Graph {
				snap, err := ReadSnapshot(bytes.NewReader(snapBytes(t, g, nil)))
				if err != nil {
					t.Fatal(err)
				}
				return snap.G
			}},
	}
	for name, nodes := range inputs {
		for _, path := range paths {
			t.Run(name+"/"+path.name, func(t *testing.T) {
				b := NewBuilder()
				kept := make([]map[string]Value, len(nodes))
				for i, attrs := range nodes {
					kept[i] = map[string]Value{}
					for a, v := range attrs {
						if path.keep(v) {
							kept[i][a] = v
						}
					}
					b.AddNode("P", kept[i])
				}
				built := MustBuild(b)
				mirrorTuples(t, path.load(t, built), built.Attrs, kept)
			})
		}
	}
	for _, tc := range doorInputs {
		if tc.refused[0] == "" {
			continue
		}
		var errs [3]error
		b := NewBuilder()
		for _, n := range tc.nodes {
			b.AddNode("P", n)
		}
		_, errs[0] = b.Build()
		_, errs[1] = ReadJSON(strings.NewReader(tc.json))
		if tc.doctor != nil {
			b.AddNode("P", map[string]Value{"a": N(1)})
			g := MustBuild(b)
			codes := cloneCodes(g.Codes())
			tc.doctor(g, codes)
			var buf bytes.Buffer
			if err := g.writeSnapshot(&buf, nil, codes); err != nil {
				t.Fatal(err)
			}
			_, errs[2] = ReadSnapshot(&buf)
		}
		for i, path := range paths {
			if tc.refused[i] == "" {
				continue
			}
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				if err := errs[i]; err == nil || !strings.Contains(err.Error(), tc.refused[i]) {
					t.Fatalf("admitted or refused for another reason: %v; want %q", err, tc.refused[i])
				}
			})
		}
	}
}

// TestBuiltGraphsRoundTripJSON: what Build admits, WriteJSON can write
// and ReadJSON read back, and the graph read back writes the same
// document (the same bytes but for how a U+FFFD is escaped: WriteJSON
// writes a byte that is not UTF-8 as \ufffd).
// Every input of TestCodesMirrorTuples is tried, refused ones included,
// so a value the door lets through that JSON cannot hold fails here.
func TestBuiltGraphsRoundTripJSON(t *testing.T) {
	inputs := map[string][]map[string]Value{}
	_, inputs["edgeGraph"] = edgeTuples(400, 3)
	for _, tc := range doorInputs {
		inputs[tc.name] = tc.nodes
	}
	for name, nodes := range inputs {
		b := NewBuilder()
		for _, attrs := range nodes {
			b.AddNode("P", attrs)
		}
		g, err := b.Build()
		if err != nil {
			continue // refused at the door
		}
		var first, second bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Errorf("%s: built, but WriteJSON: %v", name, err)
			continue
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Errorf("%s: ReadJSON of its WriteJSON: %v", name, err)
			continue
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Errorf("%s: WriteJSON of the graph read back: %v", name, err)
			continue
		}
		var doc, again any
		if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(second.Bytes(), &again); err != nil || !reflect.DeepEqual(doc, again) {
			t.Errorf("%s: the graph read back writes another document (%v)", name, err)
		}
	}
}

// mirrorTuples checks g's column against the tuples its nodes were
// given, under the attribute ids the Builder interned and each value in
// canonical form: cell for cell the attribute id, the kind, the float
// bits and the string; then the postings, code by code the ascending
// nodes whose cell carries it; then, attribute by attribute, that codes
// are equal exactly where the values are (Equal, and EQ.Holds) and
// ordered as Compare orders them.
func mirrorTuples(t *testing.T, g *Graph, attrs *Names, nodes []map[string]Value) {
	t.Helper()
	c := g.Codes()
	total := 0
	for a := int32(1); a < int32(g.Attrs.Len()); a++ {
		if d := c.Domain(a); d != nil {
			total += len(d.Values)
		}
	}
	if c.Len() != total {
		t.Fatalf("Len = %d, domains hold %d values", c.Len(), total)
	}
	type cell struct {
		code int32
		val  Value
	}
	byAttr := map[int32][]cell{}
	for v, given := range nodes {
		var exp []AttrValue
		for name, val := range given {
			aid, _ := attrs.Lookup(name)
			canon, err := val.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			exp = append(exp, AttrValue{Attr: aid, Val: canon})
		}
		slices.SortFunc(exp, func(x, y AttrValue) int { return int(x.Attr - y.Attr) })
		tuple := g.Tuple(NodeID(v))
		if len(tuple) != len(exp) {
			t.Fatalf("node %d: %d cells, given %d", v, len(tuple), len(exp))
		}
		for i, cl := range tuple {
			w, got := exp[i].Val, g.Value(cl)
			if cl.Attr != exp[i].Attr || got != w || got.Num == 0 && math.Signbit(got.Num) {
				t.Fatalf("node %d cell %d: given attribute %d = %#v, holds attribute %d, code %d reads %#v",
					v, i, exp[i].Attr, w, cl.Attr, cl.Code, got)
			}
			byAttr[cl.Attr] = append(byAttr[cl.Attr], cell{cl.Code, got})
		}
	}
	carriers := make([][]NodeID, c.Len())
	for v := range nodes {
		for _, cl := range g.Tuple(NodeID(v)) {
			carriers[cl.Code] = append(carriers[cl.Code], NodeID(v))
		}
	}
	for code, want := range carriers {
		if got := c.Postings(int32(code), int32(code)); !slices.Equal(got, want) {
			t.Fatalf("postings of code %d: %v, carried by %v", code, got, want)
		}
	}
	if all := c.Postings(0, int32(c.Len()-1)); len(all) != len(c.cells) {
		t.Fatalf("postings hold %d ids, the column %d cells", len(all), len(c.cells))
	}
	for a, cells := range byAttr {
		for _, x := range cells {
			for _, y := range cells {
				if eq := EQ.Holds(x.val, y.val); eq != (x.code == y.code) || eq != x.val.Equal(y.val) {
					t.Fatalf("%s: %#v and %#v equal: %v, codes %d and %d", g.Attrs.Name(a), x.val, y.val, eq, x.code, y.code)
				}
				if (x.val.Compare(y.val) < 0) != (x.code < y.code) {
					t.Fatalf("%s: %#v before %#v, codes %d and %d", g.Attrs.Name(a), x.val, y.val, x.code, y.code)
				}
			}
		}
	}
}

// TestCodesConcurrentFirstUse hits a cold graph's key ranks, the part of
// the column built lazily, from many goroutines (run under -race): one
// build, shared by all.
func TestCodesConcurrentFirstUse(t *testing.T) {
	g := MustBuild(edgeGraph(300, 4))
	ranks := make([][]int32, 8)
	var wg sync.WaitGroup
	for w := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.ActiveDomain("plain")
			ranks[w] = g.Codes().KeyRanks()
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				_ = g.Tuple(v)
			}
		}()
	}
	wg.Wait()
	for w := range ranks {
		if &ranks[w][0] != &ranks[0][0] {
			t.Fatalf("goroutine %d built its own ranks", w)
		}
	}
}

// TestKeyRanks: ranks order codes as their rendered keys order, and no
// two codes render alike, values holding "=" and numbers beside strings
// that render as they do included.
func TestKeyRanks(t *testing.T) {
	b := edgeGraph(400, 5)
	b.AddNode("A", map[string]Value{"k": S("v=w"), "kv": S("=w")})
	g := MustBuild(b)
	c := g.Codes()
	rank := c.KeyRanks()
	attrOf := func(code int32) int32 {
		return int32(sort.Search(len(c.base)-1, func(a int) bool { return c.base[a+1] > code }))
	}
	text := func(code int32) string {
		a := attrOf(code)
		v := g.Value(AttrCode{Attr: a, Code: code})
		kind := "#s"
		if v.Kind == Number {
			kind = "#n"
		}
		return g.Attrs.Name(a) + "=" + v.String() + kind
	}
	for x := int32(0); int(x) < c.Len(); x++ {
		for y := int32(0); int(y) < c.Len(); y++ {
			if tx, ty := text(x), text(y); (tx < ty) != (rank[x] < rank[y]) || (tx == ty) != (x == y) {
				t.Fatalf("%q rank %d, %q rank %d", tx, rank[x], ty, rank[y])
			}
		}
	}
}
