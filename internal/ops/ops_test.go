package ops

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// fixture builds the Fig 1 query and a graph with known diameter and
// price range for cost assertions.
func fixture() (*graph.Graph, *query.Query) {
	gb := graph.NewBuilder()
	// A 4-chain fixes the (undirected) diameter at 3.
	for i := 0; i < 4; i++ {
		gb.AddNode("Cellphone", map[string]graph.Value{
			"Price": graph.N(float64(750 + 50*i)), // range 150
			"RAM":   graph.N(float64(2 + 2*i)),
		})
	}
	for i := 0; i+1 < 4; i++ {
		gb.AddEdge(graph.NodeID(i), graph.NodeID(i+1), "")
	}

	q := query.New()
	cell := q.AddNode("Cellphone",
		query.Literal{Attr: "Price", Op: graph.GE, Val: graph.N(840)},
		query.Literal{Attr: "RAM", Op: graph.GE, Val: graph.N(4)},
	)
	car := q.AddNode("Carrier")
	sen := q.AddNode("Sensor")
	q.AddEdge(car, cell, 1)
	q.AddEdge(cell, sen, 2)
	q.Focus = cell
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return g, q
}

func lit(attr string, op graph.Op, v float64) query.Literal {
	return query.Literal{Attr: attr, Op: op, Val: graph.N(v)}
}

// TestCostsExample31 reproduces the cost table of Example 3.1 (with
// this fixture's D(G)=3 and range(Price)=150).
func TestCostsExample31(t *testing.T) {
	g, _ := fixture()
	if d := g.Diameter(); d != 3 {
		t.Fatalf("fixture diameter = %d, want 3", d)
	}
	cases := []struct {
		o    Op
		want float64
	}{
		{Op{Kind: AddL, U: 1, Lit: lit("Discount", graph.EQ, 25)}, 1},
		{Op{Kind: RmE, U: 0, U2: 2, Bound: 2}, 1 + 2.0/3},
		{Op{Kind: RxL, U: 0, Lit: lit("Price", graph.GE, 840), NewLit: lit("Price", graph.GE, 790)}, 1 + 50.0/150},
		{Op{Kind: RxL, U: 0, Lit: lit("Price", graph.GE, 840), NewLit: lit("Price", graph.GE, 750)}, 1 + 90.0/150},
		{Op{Kind: RmL, U: 0, Lit: lit("Price", graph.GE, 840)}, 1},
		{Op{Kind: RxE, U: 0, U2: 2, Bound: 2, NewBound: 3}, 1 + 1.0/3},
		{Op{Kind: RfE, U: 0, U2: 2, Bound: 2, NewBound: 1}, 1 + 1.0/3},
		{Op{Kind: Empty}, 0},
	}
	for _, c := range cases {
		if got := c.o.Cost(g); !close(got, c.want) {
			t.Errorf("cost(%s) = %v, want %v", c.o, got, c.want)
		}
	}
}

func close(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

// TestCostRange: every non-empty operator costs within [1, 2].
func TestCostRange(t *testing.T) {
	g, q := fixture()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		o := randomOp(q, rng)
		if o.Kind == Empty {
			continue
		}
		c := o.Cost(g)
		if c < 1 || c > 2 {
			t.Fatalf("cost(%s) = %v out of [1,2]", o, c)
		}
	}
}

// TestMinCostIsTheFloor: Empty is the only kind that costs less than
// MinCost, whatever the operator's fields hold — zero and negative
// bounds, NaN and infinite constants, an attribute no node carries, a
// kind outside Table 1. The chase skips operator generation for a state
// whose remaining budget is below MinCost on the strength of this.
func TestMinCostIsTheFloor(t *testing.T) {
	g, _ := fixture()
	if c := (Op{Kind: Empty}).Cost(g); c >= MinCost {
		t.Errorf("cost(∅) = %v, want below MinCost %v", c, MinCost)
	}
	nums := []float64{0, -1, 5, 840, 1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	bounds := []int{-3, 0, 1, 2, 1 << 40}
	for k := RmL; k <= RfE+1; k++ {
		for _, attr := range []string{"Price", "NoSuchAttr"} {
			for _, a := range nums {
				for _, b := range nums {
					for _, bound := range bounds {
						for _, newBound := range bounds {
							o := Op{Kind: k, Lit: lit(attr, graph.GE, a), NewLit: lit(attr, graph.LE, b), Bound: bound, NewBound: newBound}
							if c := o.Cost(g); !(c >= MinCost && c <= 2) {
								t.Fatalf("cost(%s) = %v, want within [MinCost, 2]", o, c)
							}
						}
					}
				}
			}
		}
	}
}

// randomOp fabricates a structurally plausible operator (not
// necessarily applicable).
func randomOp(q *query.Query, rng *rand.Rand) Op {
	kinds := []Kind{RmL, RmE, RxL, RxE, AddL, AddE, RfL, RfE}
	k := kinds[rng.Intn(len(kinds))]
	u := query.NodeID(rng.Intn(len(q.Nodes)))
	price := float64(700 + rng.Intn(400))
	price2 := float64(700 + rng.Intn(400))
	switch k {
	case RmL, AddL:
		return Op{Kind: k, U: u, Lit: lit("Price", graph.GE, price)}
	case RxL, RfL:
		return Op{Kind: k, U: u, Lit: lit("Price", graph.GE, price), NewLit: lit("Price", graph.GE, price2)}
	case RmE, AddE:
		return Op{Kind: k, U: 0, U2: 2, Bound: 1 + rng.Intn(3)}
	default:
		return Op{Kind: k, U: 0, U2: 2, Bound: 2, NewBound: 1 + rng.Intn(3)}
	}
}

func TestWeaker(t *testing.T) {
	ge := func(c float64) query.Literal { return lit("p", graph.GE, c) }
	le := func(c float64) query.Literal { return lit("p", graph.LE, c) }
	eq := func(c float64) query.Literal { return lit("p", graph.EQ, c) }
	gt := func(c float64) query.Literal { return lit("p", graph.GT, c) }
	lt := func(c float64) query.Literal { return lit("p", graph.LT, c) }

	cases := []struct {
		a, b query.Literal
		want bool
	}{
		{ge(840), ge(790), true},  // lower bound moved down = weaker
		{ge(790), ge(840), false}, // tightened
		{le(100), le(200), true},
		{le(200), le(100), false},
		{eq(5), ge(4), true}, // point to half-line containing it
		{eq(5), ge(6), false},
		{eq(5), le(5), true},
		{gt(10), ge(10), true}, // open to closed at same bound
		{ge(10), gt(10), false},
		{lt(10), le(10), true},
		{le(10), lt(10), false},
		{ge(5), le(5), false},                 // incomparable directions
		{ge(5), lit("q", graph.GE, 1), false}, // different attrs never compare
	}
	for _, c := range cases {
		if got := Weaker(c.a, c.b); got != c.want {
			t.Errorf("Weaker(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// Strings have no interval semantics.
	s := query.Literal{Attr: "p", Op: graph.EQ, Val: graph.S("x")}
	if Weaker(s, s) {
		t.Error("string literals must not compare as weaker")
	}
}

func TestApplicability(t *testing.T) {
	_, q := fixture()
	p := DefaultParams()
	priceLit := lit("Price", graph.GE, 840)

	good := []Op{
		{Kind: RmL, U: 0, Lit: priceLit},
		{Kind: RxL, U: 0, Lit: priceLit, NewLit: lit("Price", graph.GE, 790)},
		{Kind: RfL, U: 0, Lit: priceLit, NewLit: lit("Price", graph.GE, 900)},
		{Kind: AddL, U: 1, Lit: lit("Discount", graph.EQ, 25)},
		{Kind: RmE, U: 1, U2: 0, Bound: 1},
		{Kind: RxE, U: 0, U2: 2, Bound: 2, NewBound: 3},
		{Kind: RfE, U: 0, U2: 2, Bound: 2, NewBound: 1},
		{Kind: AddE, U: 1, U2: 2, Bound: 1},
		{Kind: AddE, U: 0, Bound: 2, NewNode: &NewNodeSpec{Label: "Shop"}},
		{Kind: Empty},
	}
	for _, o := range good {
		if !o.Applicable(q, p) {
			t.Errorf("%s should be applicable", o)
		}
	}

	bad := []Op{
		{Kind: RmL, U: 0, Lit: lit("Weight", graph.GE, 1)},                    // no such literal
		{Kind: RxL, U: 0, Lit: priceLit, NewLit: lit("Price", graph.GE, 900)}, // stronger, not weaker
		{Kind: RfL, U: 0, Lit: priceLit, NewLit: lit("Price", graph.GE, 700)}, // weaker, not stronger
		{Kind: RxL, U: 0, Lit: priceLit, NewLit: priceLit},                    // no-op
		{Kind: AddL, U: 0, Lit: lit("Price", graph.GE, 1000)},                 // duplicate attr+op
		{Kind: RmE, U: 0, U2: 1, Bound: 1},                                    // wrong direction
		{Kind: RmE, U: 1, U2: 0, Bound: 2},                                    // wrong bound
		{Kind: RxE, U: 0, U2: 2, Bound: 2, NewBound: 9},                       // beyond b_m
		{Kind: RxE, U: 0, U2: 2, Bound: 2, NewBound: 2},                       // not larger
		{Kind: RfE, U: 0, U2: 2, Bound: 2, NewBound: 0},                       // below 1
		{Kind: AddE, U: 1, U2: 0, Bound: 1},                                   // edge exists
		{Kind: AddE, U: 1, U2: 1, Bound: 1},                                   // self-loop
		{Kind: AddE, U: 0, U2: 1, Bound: 9},                                   // bound beyond b_m
		{Kind: RmL, U: 99, Lit: priceLit},                                     // node out of range
	}
	for _, o := range bad {
		if o.Applicable(q, p) {
			t.Errorf("%s should NOT be applicable", o)
		}
	}
}

func TestApplyLiteralOps(t *testing.T) {
	_, q := fixture()
	priceLit := lit("Price", graph.GE, 840)

	q2 := mustApply(t, Op{Kind: RmL, U: 0, Lit: priceLit}, q)
	if q2.HasLiteral(0, priceLit) {
		t.Error("RmL did not remove the literal")
	}
	if !q.HasLiteral(0, priceLit) {
		t.Error("Apply mutated the original query")
	}

	q3 := mustApply(t, Op{Kind: RxL, U: 0, Lit: priceLit, NewLit: lit("Price", graph.GE, 790)}, q)
	if !q3.HasLiteral(0, lit("Price", graph.GE, 790)) || q3.HasLiteral(0, priceLit) {
		t.Error("RxL did not replace the literal")
	}

	q4 := mustApply(t, Op{Kind: AddL, U: 1, Lit: lit("Discount", graph.EQ, 25)}, q)
	if !q4.HasLiteral(1, lit("Discount", graph.EQ, 25)) {
		t.Error("AddL did not add the literal")
	}
}

func TestApplyEdgeOps(t *testing.T) {
	_, q := fixture()

	// RmE keeps the now-isolated sensor node (indices stay stable for
	// operator reordering) but the node no longer constrains matching.
	q2 := mustApply(t, Op{Kind: RmE, U: 0, U2: 2, Bound: 2}, q)
	if len(q2.Nodes) != 3 || len(q2.Edges) != 1 {
		t.Fatalf("RmE should keep nodes and drop one edge: %s", q2)
	}
	if !q2.IsolatedIgnored(2) {
		t.Error("detached sensor node should be ignored by matching")
	}
	if q2.IsolatedIgnored(q2.Focus) {
		t.Error("focus is never ignored")
	}

	q3 := mustApply(t, Op{Kind: RxE, U: 0, U2: 2, Bound: 2, NewBound: 3}, q)
	if q3.Edges[q3.FindEdge(0, 2)].Bound != 3 {
		t.Error("RxE did not relax the bound")
	}

	q4 := mustApply(t, Op{Kind: AddE, U: 0, Bound: 2, NewNode: &NewNodeSpec{Label: "Shop"}}, q)
	if len(q4.Nodes) != 4 || q4.Nodes[3].Label != "Shop" {
		t.Error("AddE with NewNode did not create the node")
	}
	if q4.FindEdge(0, 3) < 0 {
		t.Error("AddE with NewNode did not create the edge")
	}
}

func TestRmEIsolatesBothEndpoints(t *testing.T) {
	q := query.New()
	a := q.AddNode("A")
	b := q.AddNode("B")
	q.AddEdge(a, b, 1)
	q.Focus = b
	// Removing the only edge isolates both; the non-focus endpoint is
	// ignored, the focus keeps constraining.
	q2 := mustApply(t, Op{Kind: RmE, U: a, U2: b, Bound: 1}, q)
	if !q2.IsolatedIgnored(a) {
		t.Error("detached non-focus endpoint should be ignored")
	}
	if q2.IsolatedIgnored(b) {
		t.Error("the focus must keep constraining even when isolated")
	}
}

func TestSequenceCanonical(t *testing.T) {
	priceLit := lit("Price", graph.GE, 840)
	relax := Op{Kind: RmL, U: 0, Lit: priceLit}
	refineSame := Op{Kind: AddL, U: 0, Lit: lit("Price", graph.EQ, 700)}
	other := Op{Kind: AddL, U: 1, Lit: lit("Discount", graph.EQ, 25)}

	if !(Sequence{relax, other}).Canonical() {
		t.Error("independent targets should be canonical")
	}
	if (Sequence{relax, refineSame}).Canonical() {
		t.Error("cancel-out pair (same node+attr) should not be canonical")
	}
	if (Sequence{relax, relax}).Canonical() {
		t.Error("repeated target should not be canonical")
	}
	if !(Sequence{{Kind: Empty}, relax}).Canonical() {
		t.Error("empty operators never break canonicality")
	}
	// AddE with fresh nodes never collides.
	newE := Op{Kind: AddE, U: 0, Bound: 1, NewNode: &NewNodeSpec{Label: "X"}}
	if !(Sequence{newE, newE}).Canonical() {
		t.Error("fresh-node AddE ops should be canonical together")
	}
}

// TestNormalFormEquivalence is the Lemma 4.1 property: a canonical
// sequence and its normal form produce identical rewrites.
func TestNormalFormEquivalence(t *testing.T) {
	g, q := fixture()
	p := DefaultParams()
	rng := rand.New(rand.NewSource(7))

	for trial := 0; trial < 300; trial++ {
		seq := randomCanonicalSequence(q, rng)
		if len(seq) == 0 {
			continue
		}
		applied, err := seq.Apply(q, p)
		if err != nil {
			continue // the random sequence was not applicable; skip
		}
		norm, err := seq.NormalForm()
		if err != nil {
			t.Fatalf("trial %d: canonical sequence rejected: %v", trial, err)
		}
		if !norm.IsNormalForm() {
			t.Fatalf("trial %d: NormalForm output not in normal form: %v", trial, norm)
		}
		applied2, err := norm.Apply(q, p)
		if err != nil {
			t.Fatalf("trial %d: normal form not applicable: %v (orig %v)", trial, err, seq)
		}
		if applied.Key() != applied2.Key() {
			t.Fatalf("trial %d: normal form changed the rewrite:\n%s\nvs\n%s\nseq=%v norm=%v",
				trial, applied, applied2, seq, norm)
		}
		if !close(seq.Cost(g), norm.Cost(g)) {
			t.Fatalf("trial %d: normal form changed the cost", trial)
		}
	}
}

// randomCanonicalSequence draws operators with disjoint targets from
// the fixture query's rewrite space.
func randomCanonicalSequence(q *query.Query, rng *rand.Rand) Sequence {
	pool := []Op{
		{Kind: RmL, U: 0, Lit: lit("Price", graph.GE, 840)},
		{Kind: RxL, U: 0, Lit: lit("Price", graph.GE, 840), NewLit: lit("Price", graph.GE, 790)},
		{Kind: RfL, U: 0, Lit: lit("RAM", graph.GE, 4), NewLit: lit("RAM", graph.GE, 6)},
		{Kind: RmL, U: 0, Lit: lit("RAM", graph.GE, 4)},
		{Kind: AddL, U: 1, Lit: lit("Discount", graph.EQ, 25)},
		{Kind: RmE, U: 1, U2: 0, Bound: 1},
		{Kind: RmE, U: 0, U2: 2, Bound: 2},
		{Kind: RxE, U: 0, U2: 2, Bound: 2, NewBound: 3},
		{Kind: RfE, U: 0, U2: 2, Bound: 2, NewBound: 1},
		{Kind: AddE, U: 1, U2: 2, Bound: 1},
		{Kind: Empty},
	}
	perm := rng.Perm(len(pool))
	var seq Sequence
	n := 1 + rng.Intn(4)
	for _, i := range perm {
		if len(seq) == n {
			break
		}
		o := pool[i]
		if t, ok := o.Target(); ok && seq.Targets().Has(t) {
			continue
		}
		seq = append(seq, o)
	}
	return seq
}

// TestSequenceApplyValidates: sequences fail loudly on inapplicable
// steps.
func TestSequenceApplyValidates(t *testing.T) {
	_, q := fixture()
	seq := Sequence{
		{Kind: RmL, U: 0, Lit: lit("Price", graph.GE, 840)},
		{Kind: RmL, U: 0, Lit: lit("Price", graph.GE, 840)}, // already removed
	}
	if _, err := seq.Apply(q, DefaultParams()); err == nil {
		t.Error("double removal must fail")
	}
}

func TestNormalFormRejectsNonCanonical(t *testing.T) {
	seq := Sequence{
		{Kind: RmL, U: 0, Lit: lit("Price", graph.GE, 840)},
		{Kind: AddL, U: 0, Lit: lit("Price", graph.EQ, 1)},
	}
	if _, err := seq.NormalForm(); err == nil {
		t.Error("cancel-out sequence must be rejected")
	}
}

// TestKindClassesProperty: exactly one of IsRelax/IsRefine holds for
// real operators; neither for Empty.
func TestKindClassesProperty(t *testing.T) {
	f := func(k uint8) bool {
		kind := Kind(k % 9)
		if kind == Empty {
			return !kind.IsRelax() && !kind.IsRefine()
		}
		return kind.IsRelax() != kind.IsRefine()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mustApply applies o to q, failing the test on a structural error.
func mustApply(t *testing.T, o Op, q *query.Query) *query.Query {
	t.Helper()
	q2, err := o.Apply(q)
	if err != nil {
		t.Fatalf("Apply(%s): %v", o, err)
	}
	return q2
}

// TestApplyStructuralErrors: Apply reports — rather than panics on —
// operators that do not fit the query.
func TestApplyStructuralErrors(t *testing.T) {
	_, q := fixture()
	bad := []Op{
		{Kind: RmL, U: 0, Lit: lit("NoSuchAttr", graph.GE, 1)},
		{Kind: RxL, U: 0, Lit: lit("NoSuchAttr", graph.GE, 1), NewLit: lit("NoSuchAttr", graph.GE, 0)},
		{Kind: RfL, U: 0, Lit: lit("NoSuchAttr", graph.GE, 1), NewLit: lit("NoSuchAttr", graph.GE, 2)},
		{Kind: RmE, U: 1, U2: 2, Bound: 1}, // no such edge
		{Kind: RxE, U: 1, U2: 2, Bound: 1, NewBound: 2},
		{Kind: RfE, U: 1, U2: 2, Bound: 2, NewBound: 1},
		{Kind: Kind(42)},
	}
	for _, o := range bad {
		if q2, err := o.Apply(q); err == nil {
			t.Errorf("Apply(%s) = %s, want structural error", o, q2)
		}
	}
}
