package graph

import (
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

// edgeGraph draws every node's attributes from pools: "plain" and "word"
// hold ordinary numbers and strings, "mixed" both kinds, "edge" anything
// from edgeValues.
func edgeGraph(n int, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	edge := edgeValues()
	b := NewBuilder()
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
		b.AddNode([]string{"A", "B"}[rng.Intn(2)], attrs)
	}
	return b
}

// TestDomainWithNaNAndZeros: NaN cells are one domain value however many
// there are (a float-keyed map gave each its own), -0 and 0 are two, and
// neither disturbs Contains or Range.
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
	for _, v := range []Value{N(0), N(negZero), N(2), N(5), S("s")} {
		if !d.Contains(v) {
			t.Errorf("Contains(%#v) = false", v)
		}
	}
	for _, v := range []Value{N(1), N(7), N(-1), N(math.NaN()), S("5"), S("")} {
		if d.Contains(v) {
			t.Errorf("Contains(%#v) = true", v)
		}
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

// TestCodesMirrorTuples: the column is the arena cell for cell, a code
// names its cell's value, and on a regular attribute codes are equal
// where the engine's equality test holds and ordered as Compare orders.
func TestCodesMirrorTuples(t *testing.T) {
	g := edgeGraph(400, 3).Build()
	c := g.Codes()
	total := 0
	for a := int32(1); a < int32(g.Attrs.Len()); a++ {
		total += len(c.Domain(a).Values)
	}
	if c.Len() != total {
		t.Fatalf("Len = %d, domains hold %d values", c.Len(), total)
	}
	type cell struct {
		code int32
		val  Value
	}
	byAttr := map[int32][]cell{}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		tuple, coded := g.Tuple(v), c.Tuple(v)
		if len(tuple) != len(coded) {
			t.Fatalf("node %d: %d cells, %d codes", v, len(tuple), len(coded))
		}
		for i, av := range tuple {
			code := coded[i].Code
			if coded[i].Attr != av.Attr || c.Attr(code) != av.Attr {
				t.Fatalf("node %d cell %d: attribute %d, column says %d, code's is %d", v, i, av.Attr, coded[i].Attr, c.Attr(code))
			}
			got := c.Value(code)
			sameBits := math.Float64bits(got.Num) == math.Float64bits(av.Val.Num) || (got.Num != got.Num && av.Val.Num != av.Val.Num)
			if got.Kind != av.Val.Kind || got.Str != av.Val.Str || !sameBits {
				t.Fatalf("node %d cell %d: value %#v, code %d stands for %#v", v, i, av.Val, code, got)
			}
			byAttr[av.Attr] = append(byAttr[av.Attr], cell{code, av.Val})
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
	for _, name := range []string{"plain", "word", "mixed"} {
		if a, _ := g.Attrs.Lookup(name); c.Irregular(a) {
			t.Errorf("%s is irregular", name)
		}
	}
	if a, _ := g.Attrs.Lookup("edge"); !c.Irregular(a) {
		t.Error("edge is regular")
	}
}

// TestCodesIrregular lists, input by input, which attributes lose the
// code tests.
func TestCodesIrregular(t *testing.T) {
	cases := []struct {
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
	for _, tc := range cases {
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

// TestCodesConcurrentFirstUse hits a cold graph's view and key ranks from
// many goroutines (run under -race): one build each, shared by all.
func TestCodesConcurrentFirstUse(t *testing.T) {
	g := edgeGraph(300, 4).Build()
	views := make([]*Codes, 8)
	ranks := make([][]int32, len(views))
	var wg sync.WaitGroup
	for w := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.ActiveDomain("plain")
			views[w] = g.Codes()
			ranks[w], _ = views[w].KeyRanks()
			for v := NodeID(0); int(v) < g.NumNodes(); v++ {
				_ = views[w].Tuple(v)
			}
		}()
	}
	wg.Wait()
	for w := range views {
		if views[w] != views[0] || &ranks[w][0] != &ranks[0][0] {
			t.Fatalf("goroutine %d built its own view or ranks", w)
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
	text := func(code int32) string {
		v := c.Value(code)
		kind := "#s"
		if v.Kind == Number {
			kind = "#n"
		}
		return g.Attrs.Name(c.Attr(code)) + "=" + v.String() + kind
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
			if !c.Irregular(c.Attr(x)) {
				t.Errorf("%q merges on a regular attribute", text(x))
			}
		}
	}
	if merged < 3 { // 5/five, x/x+payload, the NaNs' one code beside nothing, k=v=w
		t.Errorf("only %d codes render like an earlier one; the input should hold several", merged)
	}
}
