package graph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

var negZero = math.Copysign(0, -1)

// edgeValues are the values whose codes need care: both zeros, NaNs of
// two payloads, numbers beside strings that render alike, payload a
// kind ignores.
func edgeValues() []Value {
	return []Value{
		N(0), N(negZero), N(math.NaN()), N(math.Float64frombits(0x7ff8000000000123)),
		N(-3), N(5), N(5.5), N(math.Inf(1)), N(math.Inf(-1)),
		S(""), S("5"), S("NaN"), S("x"), S("y"),
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

// TestDomainWithNaNAndZeros: NaN cells are one domain value however many
// there are (a float-keyed map gave each its own), -0 and 0 are two, and
// neither disturbs Range.
func TestDomainWithNaNAndZeros(t *testing.T) {
	b := NewBuilder()
	for _, v := range []Value{
		N(math.NaN()), N(5), N(0), N(math.NaN()), N(negZero), S("s"),
		N(math.Float64frombits(0x7ff8000000000123)), N(0), N(2), N(math.NaN()),
	} {
		b.AddNode("P", map[string]Value{"x": v})
	}
	d := b.Build().ActiveDomain("x")
	if len(d.Values) != 6 || d.Numbers != 5 {
		t.Fatalf("domain = %v (%d numeric), want 0 -0 2 5 NaN s", d.Values, d.Numbers)
	}
	for i, want := range []Value{N(0), N(negZero), N(2), N(5)} {
		if got := d.Values[i]; math.Float64bits(got.Num) != math.Float64bits(want.Num) {
			t.Errorf("Values[%d] = %v, want %v", i, got, want)
		}
	}
	if !math.IsNaN(d.Values[4].Num) || d.Values[5] != S("s") {
		t.Errorf("domain tail = %v, want NaN then the string", d.Values[4:])
	}
	if d.NumMin != 0 || d.NumMax != 5 || d.Range() != 5 {
		t.Errorf("min %v max %v range %v, want 0 5 5", d.NumMin, d.NumMax, d.Range())
	}

	onlyNaN := NewBuilder()
	onlyNaN.AddNode("P", map[string]Value{"x": N(math.NaN())})
	onlyNaN.AddNode("P", map[string]Value{"x": N(math.NaN())})
	if d := onlyNaN.Build().ActiveDomain("x"); len(d.Values) != 1 || d.NumMin != 0 || d.NumMax != 0 || d.Range() != 1 {
		t.Errorf("all-NaN domain = %v, min %v max %v range %v", d.Values, d.NumMin, d.NumMax, d.Range())
	}
}

// irregularInputs are TestCodesIrregular's graphs, one tuple per node,
// and the attributes each must mark irregular.
var irregularInputs = []struct {
	name  string
	nodes []map[string]Value
	want  []string
}{
	{"ordinary", []map[string]Value{{"a": N(1), "b": S("x")}, {"a": S("1"), "b": S("y")}, {"a": N(0)}}, nil},
	{"one zero only", []map[string]Value{{"a": N(negZero)}, {"a": N(1)}}, nil},
	{"both zeros", []map[string]Value{{"a": N(negZero), "b": N(0)}, {"a": N(0), "b": N(1)}}, []string{"a"}},
	{"NaN", []map[string]Value{{"a": N(math.NaN()), "b": N(2)}, {"a": S("NaN"), "b": S("NaN")}}, []string{"a"}},
	{"string carrying NaN", []map[string]Value{{"a": {Kind: String, Num: math.NaN(), Str: "x"}}}, nil},
	{"number carrying a string", []map[string]Value{{"a": N(5)}, {"a": {Kind: Number, Num: 5, Str: "v"}}, {"b": {Kind: Number, Num: 5, Str: "v"}}}, []string{"a"}},
	{"string carrying a number", []map[string]Value{{"a": S("x")}, {"a": {Kind: String, Num: 1, Str: "x"}}}, []string{"a"}},
	{"neither kind", []map[string]Value{{"a": {Kind: 7, Str: "x"}, "b": N(1)}}, []string{"a"}},
	{"name holding =", []map[string]Value{{"k=v": S("w"), "k": S("v=w"), "kk": S("v"), "k=": N(1)}}, []string{"k", "k=", "k=v"}},
	{"name beginning another", []map[string]Value{{"a=b=c": N(1), "a=b": N(1), "a": N(1), "b": N(1), "=": N(1)}}, []string{"=", "a", "a=b", "a=b=c"}},
}

// TestCodesMirrorTuples: every cell a graph holds, read back through
// Graph.Value, is the value its node was given — by the Builder, or as
// the file stores it after a JSON or snapshot round trip — and on a
// regular attribute codes are equal where the engine's equality test
// holds and ordered as Compare orders.
func TestCodesMirrorTuples(t *testing.T) {
	inputs := map[string][]map[string]Value{}
	_, inputs["edgeGraph"] = edgeTuples(400, 3)
	for _, tc := range irregularInputs {
		inputs[tc.name] = tc.nodes
	}
	// asStored is a value as both files store it: a Number's bits,
	// anything else's Str.
	asStored := func(v Value) Value {
		if v.Kind == Number {
			return N(v.Num)
		}
		return S(v.Str)
	}
	paths := []struct {
		name string
		// keep reports whether the path's file can hold the value.
		keep func(Value) bool
		want func(Value) Value
		load func(*testing.T, *Graph) *Graph
	}{
		{"Build", func(Value) bool { return true }, func(v Value) Value { return v },
			func(_ *testing.T, g *Graph) *Graph { return g }},
		{"ReadJSON", func(v Value) bool { return v.Kind != Number || !math.IsNaN(v.Num) && !math.IsInf(v.Num, 0) }, asStored,
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
		{"ReadSnapshot", func(v Value) bool { return v.Kind != Number || !math.IsNaN(v.Num) }, asStored,
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
				built := b.Build()
				g := path.load(t, built)
				mirrorTuples(t, g, built.Attrs, kept, path.want)
				if name != "edgeGraph" {
					return
				}
				c := g.Codes()
				for _, attr := range []string{"plain", "word", "mixed"} {
					if a, _ := g.Attrs.Lookup(attr); c.Irregular(a) {
						t.Errorf("%s is irregular", attr)
					}
				}
				if a, _ := g.Attrs.Lookup("edge"); !c.Irregular(a) {
					t.Error("edge is regular")
				}
			})
		}
	}
}

// mirrorTuples checks g's column against the tuples its nodes were
// given, under the attribute ids the Builder interned and each value as
// want maps it: cell for cell the attribute id, the kind, the float bits
// (all NaNs being one) and the string; then the codes' equality and
// order on every regular attribute.
func mirrorTuples(t *testing.T, g *Graph, attrs *Interner, nodes []map[string]Value, want func(Value) Value) {
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
			exp = append(exp, AttrValue{Attr: aid, Val: want(val)})
		}
		slices.SortFunc(exp, func(x, y AttrValue) int { return int(x.Attr - y.Attr) })
		tuple := g.Tuple(NodeID(v))
		if len(tuple) != len(exp) {
			t.Fatalf("node %d: %d cells, given %d", v, len(tuple), len(exp))
		}
		for i, cl := range tuple {
			w, got := exp[i].Val, g.Value(cl)
			sameBits := math.Float64bits(got.Num) == math.Float64bits(w.Num) || (got.Num != got.Num && w.Num != w.Num)
			if cl.Attr != exp[i].Attr || got.Kind != w.Kind || got.Str != w.Str || !sameBits {
				t.Fatalf("node %d cell %d: given attribute %d = %#v, holds attribute %d, code %d reads %#v",
					v, i, exp[i].Attr, w, cl.Attr, cl.Code, got)
			}
			byAttr[cl.Attr] = append(byAttr[cl.Attr], cell{cl.Code, got})
		}
	}
	for a, cells := range byAttr {
		if c.Irregular(a) {
			continue
		}
		for _, x := range cells {
			for _, y := range cells {
				if eq := EQ.Holds(x.val, y.val); eq != (x.code == y.code) {
					t.Fatalf("%s: %#v and %#v equal: %v, codes %d and %d", g.Attrs.Name(a), x.val, y.val, eq, x.code, y.code)
				}
				if x.val.Kind == y.val.Kind && (x.val.Compare(y.val) < 0) != (x.code < y.code) {
					t.Fatalf("%s: %#v before %#v, codes %d and %d", g.Attrs.Name(a), x.val, y.val, x.code, y.code)
				}
			}
		}
	}
}

// TestCodesIrregular lists, input by input, which attributes lose the
// code tests.
func TestCodesIrregular(t *testing.T) {
	for _, tc := range irregularInputs {
		b := NewBuilder()
		for _, n := range tc.nodes {
			b.AddNode("P", n)
		}
		g := b.Build()
		c := g.Codes()
		var got []string
		for a := int32(1); a < int32(g.Attrs.Len()); a++ {
			if c.Irregular(a) {
				got = append(got, g.Attrs.Name(a))
			}
		}
		sort.Strings(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: irregular %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCodesConcurrentFirstUse hits a cold graph's key ranks, the part of
// the column built lazily, from many goroutines (run under -race): one
// build, shared by all.
func TestCodesConcurrentFirstUse(t *testing.T) {
	g := edgeGraph(300, 4).Build()
	ranks := make([][]int32, 8)
	var wg sync.WaitGroup
	for w := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.ActiveDomain("plain")
			ranks[w], _ = g.Codes().KeyRanks()
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

// TestKeyRanks: ranks order codes as their rendered keys order, and a
// group is the codes rendering alike.
func TestKeyRanks(t *testing.T) {
	b := edgeGraph(400, 5)
	b.AddNode("A", map[string]Value{"k=v": S("w"), "k": S("v=w")})
	g := b.Build()
	c := g.Codes()
	rank, group := c.KeyRanks()
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
	merged := 0
	for x := int32(0); int(x) < c.Len(); x++ {
		for y := int32(0); int(y) < c.Len(); y++ {
			tx, ty := text(x), text(y)
			if (tx < ty) != (rank[x] < rank[y]) || (tx == ty) != (group[x] == group[y]) {
				t.Fatalf("%q rank %d group %d, %q rank %d group %d", tx, rank[x], group[x], ty, rank[y], group[y])
			}
		}
		if group[x] > x || group[group[x]] != group[x] {
			t.Fatalf("group[%d] = %d is not the smallest of its group", x, group[x])
		}
		if group[x] != x {
			merged++
			if !c.Irregular(attrOf(x)) {
				t.Errorf("%q merges on a regular attribute", text(x))
			}
		}
	}
	if merged < 3 { // 5/five, x/x+payload, the NaNs' one code beside nothing, k=v=w
		t.Errorf("only %d codes render like an earlier one; the input should hold several", merged)
	}
}
