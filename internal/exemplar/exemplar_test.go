package exemplar

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wqe/internal/graph"
)

// phones builds a small catalog: display/storage/price triples.
func phones(rows [][3]float64) *graph.Graph {
	gb := graph.NewBuilder()
	for _, r := range rows {
		gb.AddNode("Phone", map[string]graph.Value{
			"Display": graph.N(r[0]),
			"Storage": graph.N(r[1]),
			"Price":   graph.N(r[2]),
		})
	}
	return mustBuild(gb)
}

// mustBuild returns gb's graph; the tests' graphs hold only values the
// door admits.
func mustBuild(gb *graph.Builder) *graph.Graph {
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func mustEval(t *testing.T, g *graph.Graph, e *Exemplar) *Eval {
	t.Helper()
	ev, err := NewEval(g, e, DefaultOptions())
	if err != nil {
		t.Fatalf("NewEval: %v", err)
	}
	return ev
}

func TestValidate(t *testing.T) {
	if (&Exemplar{}).Validate() == nil {
		t.Error("tuple-less exemplar must not validate")
	}
	dup := &Exemplar{Tuples: []TuplePattern{
		{"a": V("x")}, {"b": V("x")},
	}}
	if dup.Validate() == nil {
		t.Error("doubly-bound variable must not validate")
	}
	unbound := &Exemplar{
		Tuples:      []TuplePattern{{"a": C(graph.N(1))}},
		Constraints: []Constraint{{Left: "z", Op: graph.LT, Val: graph.N(5)}},
	}
	if unbound.Validate() == nil {
		t.Error("constraint on unbound variable must not validate")
	}
	for _, c := range []graph.Value{graph.N(math.NaN()), graph.N(math.Inf(1)), graph.N(math.Inf(-1)), {Kind: 7, Str: "x"}} {
		cell := &Exemplar{Tuples: []TuplePattern{{"a": C(c)}}}
		cons := &Exemplar{
			Tuples:      []TuplePattern{{"a": V("x")}},
			Constraints: []Constraint{{Left: "x", Op: graph.LE, Val: c}},
		}
		if cell.Validate() == nil || cons.Validate() == nil {
			t.Errorf("constant %#v validates", c)
		}
	}
}

func TestTupleCloseness(t *testing.T) {
	g := phones([][3]float64{{6.2, 128, 800}})
	v := graph.NodeID(0)

	exact := TuplePattern{"Display": C(graph.N(6.2))}
	if cl := TupleCloseness(g, v, exact); cl != 1 {
		t.Errorf("exact constant: cl = %v, want 1", cl)
	}
	mixed := TuplePattern{"Display": C(graph.N(6.2)), "Storage": V("x"), "Price": W()}
	if cl := TupleCloseness(g, v, mixed); cl != 1 {
		t.Errorf("const+var+wildcard all satisfied: cl = %v, want 1", cl)
	}
	missingVar := TuplePattern{"Weight": V("w")}
	if cl := TupleCloseness(g, v, missingVar); cl != 0 {
		t.Errorf("variable on missing attribute: cl = %v, want 0", cl)
	}
	missingWild := TuplePattern{"Weight": W()}
	if cl := TupleCloseness(g, v, missingWild); cl != 1 {
		t.Errorf("explicit wildcard on missing attribute: cl = %v, want 1", cl)
	}
	half := TuplePattern{"Display": C(graph.N(6.2)), "Weight": C(graph.N(200))}
	if cl := TupleCloseness(g, v, half); cl != 0.5 {
		t.Errorf("half-matching tuple: cl = %v, want 0.5", cl)
	}
	if cl := TupleCloseness(g, v, TuplePattern{}); cl != 0 {
		t.Errorf("empty tuple: cl = %v, want 0", cl)
	}
}

// TestCellSimOnOverflowingRanges: cl(v.A, c) of numbers stays in
// [0, 1], and is the ratio exact arithmetic gives, where the spread of A
// or |v − c| overflows float64 (values near ±MaxFloat64).
func TestCellSimOnOverflowingRanges(t *testing.T) {
	const m = math.MaxFloat64
	domOf := func(xs ...float64) *graph.Domain {
		gb := graph.NewBuilder()
		for _, x := range xs {
			gb.AddNode("P", map[string]graph.Value{"x": graph.N(x)})
		}
		return mustBuild(gb).ActiveDomain("x")
	}
	wide, half := domOf(-m, 0, 5, m), domOf(0, 5, m)
	for _, c := range []struct {
		dom             *graph.Domain
		have, want, sim float64
	}{
		{wide, 0, -m, 0.5},
		{wide, 0, m, 0.5},
		{wide, m / 2, m, 0.75},
		{wide, m, -m, 0},
		{wide, -m, m, 0},
		{wide, m, m, 1},
		{half, 0, m, 0},
		{half, m, -m, 0},
	} {
		if got := cellSim(graph.N(c.have), graph.N(c.want), c.dom); got != c.sim {
			t.Errorf("cellSim(%g, %g) over %v = %v, want %v", c.have, c.want, c.dom.Values, got, c.sim)
		}
	}
	nums := []float64{-m, -m / 2, -1, 0, 5, m / 3, m}
	for _, dom := range []*graph.Domain{wide, half} {
		for _, a := range nums {
			for _, b := range nums {
				if s := cellSim(graph.N(a), graph.N(b), dom); !(s >= 0 && s <= 1) {
					t.Errorf("cellSim(%g, %g) over %v = %v, outside [0, 1]", a, b, dom.Values, s)
				}
			}
		}
	}
}

// TestStringSimProperties checks the normalized-Levenshtein similarity
// invariants used for θ < 1 matching.
func TestStringSimProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 || len(b) > 40 {
			return true
		}
		s := stringSim(a, b)
		if s < 0 || s > 1 {
			return false
		}
		if s != stringSim(b, a) {
			return false
		}
		if a == b && s != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if got := stringSim("kitten", "sitting"); got <= 0.4 || got >= 0.8 {
		t.Errorf("stringSim(kitten,sitting) = %v, expected ≈ 1 - 3/7", got)
	}
}

func TestRepConstantConstraint(t *testing.T) {
	// Fig 1 semantics: phones matching the 6.3 pattern must be < 800.
	g := phones([][3]float64{
		{6.3, 64, 950}, // violates x3 < 800 → excluded entirely
		{6.3, 64, 790}, // fine
		{6.2, 128, 820},
	})
	e := &Exemplar{
		Tuples: []TuplePattern{
			{"Display": C(graph.N(6.3)), "Price": V("x3")},
		},
		Constraints: []Constraint{{Left: "x3", Op: graph.LT, Val: graph.N(800)}},
	}
	ev := mustEval(t, g, e)
	if ev.InRep(0) {
		t.Error("node 0 violates the constant constraint")
	}
	if !ev.InRep(1) {
		t.Error("node 1 should be in rep")
	}
	if ev.InRep(2) {
		t.Error("node 2 matches no tuple")
	}
}

func TestRepInequalityFixpoint(t *testing.T) {
	// x1 > x2 between group storages; partners must exist both ways.
	g := phones([][3]float64{
		{6.2, 128, 800}, // t1-group, storage 128
		{6.2, 32, 800},  // t1-group, storage 32 — no smaller t2 partner
		{6.3, 64, 700},  // t2-group, storage 64
	})
	e := &Exemplar{
		Tuples: []TuplePattern{
			{"Display": C(graph.N(6.2)), "Storage": V("x1")},
			{"Display": C(graph.N(6.3)), "Storage": V("x2")},
		},
		Constraints: []Constraint{{Left: "x1", Op: graph.GT, IsVar: true, Right: "x2"}},
	}
	ev := mustEval(t, g, e)
	if !ev.InRep(0) || !ev.InRep(2) {
		t.Errorf("rep should keep nodes 0 and 2: %v", ev.RepNodes())
	}
	if ev.InRep(1) {
		t.Error("node 1 (storage 32) has no t2 partner with smaller storage")
	}
}

func TestRepInequalityCascade(t *testing.T) {
	// Removing one node can strand its partner: fixpoint must cascade.
	g := phones([][3]float64{
		{6.2, 128, 900}, // t1: only partner is node 1
		{6.3, 64, 850},  // t2: fails price constraint → removed
	})
	e := &Exemplar{
		Tuples: []TuplePattern{
			{"Display": C(graph.N(6.2)), "Storage": V("x1")},
			{"Display": C(graph.N(6.3)), "Storage": V("x2"), "Price": V("x3")},
		},
		Constraints: []Constraint{
			{Left: "x3", Op: graph.LT, Val: graph.N(800)},
			{Left: "x1", Op: graph.GT, IsVar: true, Right: "x2"},
		},
	}
	ev := mustEval(t, g, e)
	if ev.Nontrivial() {
		t.Errorf("rep should be empty after the cascade, got %v", ev.RepNodes())
	}
}

func TestRepEqualityClass(t *testing.T) {
	// x = y across two groups: the maximal value class survives.
	gb := graph.NewBuilder()
	add := func(label string, color string) graph.NodeID {
		return gb.AddNode(label, map[string]graph.Value{"Color": graph.S(color), "Kind": graph.S(label)})
	}
	add("A", "red")   // 0
	add("A", "red")   // 1
	add("A", "blue")  // 2
	add("B", "red")   // 3
	add("B", "green") // 4
	e := &Exemplar{
		Tuples: []TuplePattern{
			{"Kind": C(graph.S("A")), "Color": V("x")},
			{"Kind": C(graph.S("B")), "Color": V("y")},
		},
		Constraints: []Constraint{{Left: "x", Op: graph.EQ, IsVar: true, Right: "y"}},
	}
	g := mustBuild(gb)
	ev := mustEval(t, g, e)
	want := map[graph.NodeID]bool{0: true, 1: true, 3: true}
	for v := graph.NodeID(0); v < 5; v++ {
		if ev.InRep(v) != want[v] {
			t.Errorf("node %d: InRep = %v, want %v (rep=%v)", v, ev.InRep(v), want[v], ev.RepNodes())
		}
	}
}

func TestSatisfiedBy(t *testing.T) {
	g := phones([][3]float64{
		{6.2, 128, 800},
		{6.3, 64, 700},
		{5.5, 16, 300},
	})
	e := &Exemplar{
		Tuples: []TuplePattern{
			{"Display": C(graph.N(6.2)), "Storage": V("x1")},
			{"Display": C(graph.N(6.3)), "Storage": V("x2")},
		},
		Constraints: []Constraint{{Left: "x1", Op: graph.GT, IsVar: true, Right: "x2"}},
	}
	ev := mustEval(t, g, e)
	if !ev.SatisfiedBy([]graph.NodeID{0, 1}) {
		t.Error("{0,1} should satisfy E")
	}
	if ev.SatisfiedBy([]graph.NodeID{0}) {
		t.Error("{0} lacks a t2 representative")
	}
	if ev.SatisfiedBy([]graph.NodeID{1}) {
		t.Error("{1} lacks a t1 representative")
	}
	if ev.SatisfiedBy([]graph.NodeID{2}) {
		t.Error("{2} matches nothing")
	}
	if !ev.SatisfiedBy([]graph.NodeID{0, 1, 2}) {
		t.Error("supersets of a satisfying set still satisfy (2 is ignorable)")
	}
}

// TestRepIsSatisfying: rep(E, V), when nonempty, must itself satisfy E
// (it is the maximal satisfying subset).
func TestRepIsSatisfying(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		rows := make([][3]float64, 8+rng.Intn(8))
		for i := range rows {
			rows[i] = [3]float64{
				[]float64{6.2, 6.3, 5.5}[rng.Intn(3)],
				float64(int(16) << rng.Intn(4)),
				float64(300 + 50*rng.Intn(14)),
			}
		}
		g := phones(rows)
		e := &Exemplar{
			Tuples: []TuplePattern{
				{"Display": C(graph.N(6.2)), "Storage": V("x1"), "Price": W()},
				{"Display": C(graph.N(6.3)), "Storage": V("x2"), "Price": V("x3")},
			},
			Constraints: []Constraint{
				{Left: "x3", Op: graph.LT, Val: graph.N(800)},
				{Left: "x1", Op: graph.GT, IsVar: true, Right: "x2"},
			},
		}
		ev := mustEval(t, g, e)
		if !ev.Nontrivial() {
			continue
		}
		if !ev.SatisfiedBy(ev.RepNodes()) {
			t.Fatalf("trial %d: rep %v does not satisfy its own exemplar", trial, ev.RepNodes())
		}
		// Monotone sanity: every rep member matches some tuple.
		for _, v := range ev.RepNodes() {
			if !ev.Matches(v) {
				t.Fatalf("trial %d: rep member %d matches no tuple", trial, v)
			}
			if ev.Cl(v) <= 0 {
				t.Fatalf("trial %d: rep member %d has non-positive closeness", trial, v)
			}
		}
	}
}

func TestClosenessMeasures(t *testing.T) {
	g := phones([][3]float64{
		{6.2, 128, 800}, // in rep
		{6.3, 64, 700},  // in rep
		{5.5, 16, 300},  // not
		{5.0, 16, 200},  // not
	})
	e := &Exemplar{Tuples: []TuplePattern{
		{"Display": C(graph.N(6.2))},
		{"Display": C(graph.N(6.3))},
	}}
	ev := mustEval(t, g, e)

	answer := []graph.NodeID{0, 2} // one relevant, one irrelevant
	if got := ev.Closeness(answer, 4); got != (1.0-1.0)/4 {
		t.Errorf("Closeness = %v, want 0", got)
	}
	if got := ev.ClPlus(answer, 4); got != 0.25 {
		t.Errorf("ClPlus = %v, want 0.25", got)
	}
	if got := ev.ClStar([]graph.NodeID{0, 1, 2, 3}); got != 0.5 {
		t.Errorf("ClStar = %v, want 0.5", got)
	}
	// cl ≤ cl⁺ ≤ cl* for answers within the candidate pool.
	if ev.Closeness(answer, 4) > ev.ClPlus(answer, 4) {
		t.Error("cl must not exceed cl⁺")
	}
	if got := ev.Closeness(nil, 0); got != 0 {
		t.Errorf("zero-candidate closeness = %v", got)
	}
	if !isFinite(ev.Closeness(answer, 4)) {
		t.Error("closeness must be finite")
	}
}

// isFinite reports whether f is neither NaN nor infinite.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// TestClBounds property: for random answers, cl ≤ cl⁺, and cl⁺ of a
// subset of the pool never exceeds cl*·(pool size)/normalizer scaling.
func TestClBounds(t *testing.T) {
	g := phones([][3]float64{
		{6.2, 128, 800}, {6.3, 64, 700}, {5.5, 16, 300}, {6.2, 64, 500}, {6.3, 32, 100},
	})
	e := &Exemplar{Tuples: []TuplePattern{
		{"Display": C(graph.N(6.2))}, {"Display": C(graph.N(6.3))},
	}}
	ev := mustEval(t, g, e)
	pool := []graph.NodeID{0, 1, 2, 3, 4}
	f := func(mask uint8) bool {
		var answer []graph.NodeID
		for i, v := range pool {
			if mask&(1<<uint(i)) != 0 {
				answer = append(answer, v)
			}
		}
		cl := ev.Closeness(answer, len(pool))
		clp := ev.ClPlus(answer, len(pool))
		return cl <= clp+1e-12 && clp <= ev.ClStar(pool)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromEntities(t *testing.T) {
	g := phones([][3]float64{{6.2, 128, 800}, {6.2, 128, 800}, {6.3, 64, 700}})
	e := FromEntities(g, []graph.NodeID{0, 1, 2}, []string{"Display"})
	if len(e.Tuples) != 2 {
		t.Errorf("duplicate tuples should merge: got %d", len(e.Tuples))
	}
	all := FromEntities(g, []graph.NodeID{0}, nil)
	if len(all.Tuples) != 1 || len(all.Tuples[0]) != 3 {
		t.Errorf("nil attrs should copy the whole tuple: %v", all)
	}
	empty := FromEntities(g, []graph.NodeID{0}, []string{"Missing"})
	if len(empty.Tuples) != 0 {
		t.Error("entities without the requested attrs yield no tuples")
	}
	// The number 5 and the string "5" render alike and match different
	// nodes: two entities, two tuple patterns.
	kindsB := graph.NewBuilder()
	num := kindsB.AddNode("P", map[string]graph.Value{"code": graph.N(5)})
	str := kindsB.AddNode("P", map[string]graph.Value{"code": graph.S("5")})
	kinds := mustBuild(kindsB)
	if e := FromEntities(kinds, []graph.NodeID{num, str}, nil); len(e.Tuples) != 2 {
		t.Errorf("tuples differing in a value's kind merged: %v", e)
	}
}

func TestTooManyTuples(t *testing.T) {
	g := phones([][3]float64{{6.2, 128, 800}})
	e := &Exemplar{}
	for i := 0; i < 65; i++ {
		e.Tuples = append(e.Tuples, TuplePattern{"Display": C(graph.N(float64(i)))})
	}
	if _, err := NewEval(g, e, DefaultOptions()); err == nil {
		t.Error("more than 64 tuples must be rejected")
	}
}

func TestThetaSimilarityMatching(t *testing.T) {
	// Widen the Display active domain (5.0 … 7.0) so the 6.25 phone's
	// similarity is 1 − 0.05/2 = 0.975.
	g := phones([][3]float64{{6.2, 128, 800}, {6.25, 128, 800}, {5.0, 16, 100}, {7.0, 256, 999}})
	e := &Exemplar{Tuples: []TuplePattern{{"Display": C(graph.N(6.2))}}}

	strict := mustEval(t, g, e)
	if strict.InRep(1) {
		t.Error("θ=1 must reject near-misses")
	}
	loose, err := NewEval(g, e, Options{Theta: 0.9, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !loose.InRep(1) {
		t.Error("θ=0.9 should accept the 6.25 phone (similarity ≈ 0.96)")
	}
}

func TestExemplarJSONRoundtrip(t *testing.T) {
	e := &Exemplar{
		Tuples: []TuplePattern{
			{"Display": C(graph.N(6.2)), "Storage": V("x1"), "Price": W()},
			{"Brand": C(graph.S("Samsung")), "Price": V("x3")},
		},
		Constraints: []Constraint{
			{Left: "x3", Op: graph.LT, Val: graph.N(800)},
			{Left: "x1", Op: graph.GT, IsVar: true, Right: "x3"},
		},
	}
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	e2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if e.String() != e2.String() {
		t.Errorf("roundtrip changed exemplar:\n%s\nvs\n%s", e, e2)
	}
}

func TestExemplarJSONErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"tuples":[]}`,
		`{"tuples":[{"a":{}}]}`, // cell with nothing set
		`{"tuples":[{"a":{"var":"x"}}],"constraints":[{"left":"x","op":"<"}]}`,           // constraint without rhs
		`{"tuples":[{"a":{"var":"x"}}],"constraints":[{"left":"y","op":"<","const":1}]}`, // unbound var
	}
	for _, s := range bad {
		if _, err := ReadJSON(bytes.NewBufferString(s)); err == nil {
			t.Errorf("ReadJSON(%q) should fail", s)
		}
	}
}

// tupleClosenessByName is the closeness sum as it was computed before
// patterns were compiled: attribute names sorted per call, every cell
// looked up by name. The compiled form must agree bit for bit — sums
// are compared exactly against θ.
func tupleClosenessByName(g *graph.Graph, v graph.NodeID, t TuplePattern) float64 {
	if len(t) == 0 {
		return 0
	}
	var total float64
	for _, attr := range t.SortedAttrs() {
		cell := t[attr]
		val, ok := g.Attr(v, attr)
		switch cell.Kind {
		case Wildcard:
			total++
		case Var:
			if ok {
				total++
			}
		case Const:
			if ok {
				total += cellSim(val, cell.Val, g.ActiveDomain(attr))
			}
		}
	}
	return total / float64(len(t))
}

func TestCompiledPatternMatchesByName(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gb := graph.NewBuilder()
	attrs := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 200; i++ {
		tuple := map[string]graph.Value{}
		for _, a := range attrs {
			switch rng.Intn(3) {
			case 0:
				tuple[a] = graph.N(float64(rng.Intn(7)) / 3)
			case 1:
				tuple[a] = graph.S([]string{"red", "reed", "blue"}[rng.Intn(3)])
			}
		}
		gb.AddNode("N", tuple)
	}
	g := mustBuild(gb)
	cellFor := func() Cell {
		switch rng.Intn(4) {
		case 0:
			return W()
		case 1:
			return V("x")
		case 2:
			return C(graph.S("red"))
		}
		return C(graph.N(float64(rng.Intn(7)) / 3))
	}
	for trial := 0; trial < 200; trial++ {
		p := TuplePattern{}
		for _, a := range append(attrs, "absent") { // "absent": no node carries it
			if rng.Intn(2) == 0 {
				p[a] = cellFor()
			}
		}
		cp := compilePattern(g, p)
		for v := 0; v < g.NumNodes(); v++ {
			want := tupleClosenessByName(g, graph.NodeID(v), p)
			if got := cp.closeness(g, graph.NodeID(v)); got != want {
				t.Fatalf("pattern %v node %d: compiled %v, by name %v", p, v, got, want)
			}
		}
	}
}
