package graph

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"800", N(800)},
		{"$800", N(800)},
		{"25%", N(25)},
		{"6.2", N(6.2)},
		{"-3.5", N(-3.5)},
		{"1,234", N(1234)},
		{" 42 ", N(42)},
		{"Samsung", S("Samsung")},
		{"", S("")},
		{"6.2inch", S("6.2inch")},
		{"$", S("$")},
		{"NaN", S("NaN")}, // a graph admits no NaN
		{"nan", S("nan")},
		{"$NaN", S("$NaN")},
		{"nan%", S("nan%")},
		{"Inf", S("Inf")}, // nor ±Inf
		{"-infinity", S("-infinity")},
		{"+Infinity", S("+Infinity")},
		{"1e999", S("1e999")}, // beyond float64's range
		{"1.7976931348623157e308", N(math.MaxFloat64)},
	}
	for _, c := range cases {
		if got := ParseValue(c.in); got != c.want {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if N(1).Equal(S("1")) {
		t.Error("number 1 must not equal string \"1\"")
	}
	if !N(2.5).Equal(N(2.5)) || !S("x").Equal(S("x")) {
		t.Error("identical values must be equal")
	}
	if N(1).Equal(N(2)) || S("a").Equal(S("b")) {
		t.Error("different values must not be equal")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{N(1), N(2), -1},
		{N(2), N(1), 1},
		{N(2), N(2), 0},
		{S("a"), S("b"), -1},
		{S("b"), S("a"), 1},
		{S("a"), S("a"), 0},
		{N(99), S("a"), -1}, // numbers order before strings
		{S("a"), N(99), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOpParseStringRoundtrip(t *testing.T) {
	for _, op := range []Op{EQ, LT, LE, GT, GE} {
		parsed, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if parsed != op {
			t.Errorf("roundtrip %v → %q → %v", op, op.String(), parsed)
		}
	}
	if _, err := ParseOp("!="); err == nil {
		t.Error("ParseOp(\"!=\") should fail")
	}
	if _, err := ParseOp("=="); err != nil {
		t.Error("ParseOp(\"==\") should parse as EQ")
	}
}

func TestOpHolds(t *testing.T) {
	cases := []struct {
		a    Value
		op   Op
		b    Value
		want bool
	}{
		{N(840), GE, N(840), true},
		{N(799), GE, N(840), false},
		{N(799), LT, N(800), true},
		{N(800), LT, N(800), false},
		{S("Active"), EQ, S("Active"), true},
		{S("Active"), EQ, S("Closed"), false},
		{S("a"), LT, S("b"), true},
		{N(1), EQ, S("1"), false}, // cross-kind comparisons are false
	}
	for _, c := range cases {
		if got := c.op.Holds(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

// TestOpFlipProperty checks a op b ⟺ b flip(op) a and flip∘flip = id.
func TestOpFlipProperty(t *testing.T) {
	opsList := []Op{EQ, LT, LE, GT, GE}
	f := func(ai, bi float64, opIdx uint8) bool {
		if math.IsNaN(ai) || math.IsNaN(bi) {
			return true
		}
		op := opsList[int(opIdx)%len(opsList)]
		a, b := N(ai), N(bi)
		if op.Flip().Flip() != op {
			return false
		}
		return op.Holds(a, b) == op.Flip().Holds(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareTotalOrder checks antisymmetry and transitivity of Compare
// on random values.
func TestCompareTotalOrder(t *testing.T) {
	gen := func(i int64, s string) Value {
		if i%2 == 0 {
			return N(float64(i))
		}
		return S(s)
	}
	f := func(i1, i2, i3 int64, s1, s2, s3 string) bool {
		a, b, c := gen(i1, s1), gen(i2, s2), gen(i3, s3)
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueOrder: on the values a graph admits (edgeValues) Equal,
// Compare == 0 and EQ.Holds are one test and Compare a total order; and
// in a graph built of them, and read back from its snapshot, codes are
// ordered as Compare orders the values and equal exactly where they are
// Equal (mirrorTuples). NaN and ±Inf are refused.
func TestValueOrder(t *testing.T) {
	for _, v := range []Value{N(math.NaN()), N(math.Inf(1)), N(math.Inf(-1))} {
		b := NewBuilder()
		b.AddNode("V", map[string]Value{"v": N(1)})
		b.AddNode("V", map[string]Value{"v": v})
		if _, err := v.Canonical(); err == nil {
			t.Errorf("Canonical admits %v", v)
		}
		if g, err := b.Build(); err == nil {
			t.Errorf("a graph holding %v built: %v", v, g)
		}
	}
	vals := edgeValues()
	for _, a := range vals {
		for _, b := range vals {
			c := a.Compare(b)
			if a.Equal(b) != (c == 0) || EQ.Holds(a, b) != (c == 0) || c != -b.Compare(a) {
				t.Fatalf("%#v vs %#v: Equal %v, Compare %d (%d reversed), EQ.Holds %v",
					a, b, a.Equal(b), c, b.Compare(a), EQ.Holds(a, b))
			}
			for _, d := range vals {
				if c <= 0 && b.Compare(d) <= 0 && a.Compare(d) > 0 {
					t.Fatalf("%#v <= %#v <= %#v, but not the first <= the last", a, b, d)
				}
			}
		}
	}
	b := NewBuilder()
	nodes := make([]map[string]Value, len(vals))
	for i, v := range vals {
		nodes[i] = map[string]Value{"v": v}
		b.AddNode("V", nodes[i])
	}
	built := MustBuild(b)
	snap, err := ReadSnapshot(bytes.NewReader(snapBytes(t, built, nil)))
	if err != nil {
		t.Fatal(err)
	}
	mirrorTuples(t, built, built.Attrs, nodes)
	mirrorTuples(t, snap.G, built.Attrs, nodes)
}

// TestGraphNamesReadOnly: a built graph's name tables only read names.
// A name added after Build, which checks them, could write a snapshot
// that ReadSnapshot refuses ("=" in an attribute name).
func TestGraphNamesReadOnly(t *testing.T) {
	g := MustBuild(NewBuilder())
	for _, names := range []any{g.Labels, g.Attrs} {
		typ := reflect.TypeOf(names)
		var methods []string
		for i := 0; i < typ.NumMethod(); i++ {
			methods = append(methods, typ.Method(i).Name)
		}
		if !slices.Equal(methods, []string{"Len", "Lookup", "Name"}) {
			t.Errorf("%v has methods %v, want Len, Lookup and Name only", typ, methods)
		}
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	if got := in.Intern(""); got != 0 {
		t.Errorf("empty string should intern to 0, got %d", got)
	}
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == b {
		t.Error("distinct strings interned to same id")
	}
	if again := in.Intern("alpha"); again != a {
		t.Errorf("re-interning changed id: %d vs %d", again, a)
	}
	if in.Name(a) != "alpha" || in.Name(b) != "beta" {
		t.Error("Name does not invert Intern")
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Error("Lookup of unseen string should miss")
	}
	if in.Len() != 3 {
		t.Errorf("Len = %d, want 3", in.Len())
	}
}
