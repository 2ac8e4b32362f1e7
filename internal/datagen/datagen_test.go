package datagen

import (
	"math/rand"
	"testing"

	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

func TestGenerateDatasets(t *testing.T) {
	for _, name := range AllDatasets() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := Generate(name, 2000, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumNodes()
			if n < 1000 || n > 3000 {
				t.Errorf("node count %d far from requested 2000", n)
			}
			if g.NumEdges() < n/2 {
				t.Errorf("suspiciously few edges: %d", g.NumEdges())
			}
			if g.Labels.Len() < 3 {
				t.Error("dataset should have several labels")
			}
			// Some nodes must carry attributes.
			attrs := 0
			for i := 0; i < n; i++ {
				attrs += len(g.Tuple(graph.NodeID(i)))
			}
			if attrs < n {
				t.Errorf("only %d attribute values over %d nodes", attrs, n)
			}
		})
	}
	if _, err := Generate("nope", 100, 1); err == nil {
		t.Error("unknown dataset name must error")
	}
}

// TestGenerateDeterminism: the same seed must produce the identical
// graph (experiments depend on reproducibility).
func TestGenerateDeterminism(t *testing.T) {
	for _, name := range AllDatasets() {
		a, _ := Generate(name, 800, 42)
		b, _ := Generate(name, 800, 42)
		if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("%s: sizes differ across runs", name)
		}
		for i := 0; i < a.NumNodes(); i++ {
			v := graph.NodeID(i)
			if a.Label(v) != b.Label(v) {
				t.Fatalf("%s: labels differ at node %d", name, i)
			}
			ta, tb := a.Tuple(v), b.Tuple(v)
			if len(ta) != len(tb) {
				t.Fatalf("%s: tuples differ at node %d", name, i)
			}
			for j := range ta {
				if !a.Value(ta[j]).Equal(b.Value(tb[j])) {
					t.Fatalf("%s: attr values differ at node %d", name, i)
				}
			}
			if len(a.Out(v)) != len(b.Out(v)) {
				t.Fatalf("%s: adjacency differs at node %d", name, i)
			}
		}
		c, _ := Generate(name, 800, 43)
		if c.NumEdges() == a.NumEdges() && c.NumNodes() == a.NumNodes() {
			// Sizes may coincide, but attribute streams should not.
			same := true
			for i := 0; i < a.NumNodes() && same; i++ {
				ta, tc := a.Tuple(graph.NodeID(i)), c.Tuple(graph.NodeID(i))
				if len(ta) != len(tc) {
					same = false
					break
				}
				for j := range ta {
					if !a.Value(ta[j]).Equal(c.Value(tc[j])) {
						same = false
						break
					}
				}
			}
			if same {
				t.Errorf("%s: different seeds produced identical graphs", name)
			}
		}
	}
}

// TestGenQueryWitness: generated queries carry a witness image that is
// a real match, so Q*(G) is never empty (the benchmark guarantee).
func TestGenQueryWitness(t *testing.T) {
	g := mustBuild(Products(2000, 7))
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(3))
	generated := 0
	for trial := 0; trial < 60 && generated < 25; trial++ {
		spec := QuerySpec{
			Shape:         []query.Topology{query.TopoStar, query.TopoTree, query.TopoCyclic}[trial%3],
			Edges:         1 + trial%4,
			MaxPredicates: 2,
			PathEdgeProb:  0.3,
		}
		q, witness, ok := GenQuery(g, spec, rng)
		if !ok {
			continue
		}
		generated++
		if err := q.Validate(); err != nil {
			t.Fatalf("generated query invalid: %v", err)
		}
		res := m.Match(q)
		if len(res.Answer) == 0 {
			t.Fatalf("generated query has empty answer: %s", q)
		}
		if !res.Has(witness[q.Focus]) {
			t.Fatalf("witness focus image %d not in answer of %s", witness[q.Focus], q)
		}
		// Shape requirement (cyclic needs ≥3 edges by construction).
		if spec.Shape == query.TopoCyclic && q.Shape() != query.TopoCyclic {
			t.Errorf("requested cyclic, got %v: %s", q.Shape(), q)
		}
	}
	if generated < 15 {
		t.Fatalf("only %d queries generated", generated)
	}
}

func TestGenQueryFocusLabel(t *testing.T) {
	g := mustBuild(Products(1500, 9))
	rng := rand.New(rand.NewSource(5))
	found := 0
	for trial := 0; trial < 30; trial++ {
		q, _, ok := GenQuery(g, QuerySpec{Edges: 2, FocusLabel: "Product", MaxPredicates: 1}, rng)
		if !ok {
			continue
		}
		found++
		if q.Nodes[q.Focus].Label != "Product" {
			t.Fatalf("focus label = %q", q.Nodes[q.Focus].Label)
		}
	}
	if found == 0 {
		t.Fatal("no Product-focused queries generated")
	}
}

func TestGenQueryMinFocusPredicates(t *testing.T) {
	g := mustBuild(Movies(1500, 9))
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		q, _, ok := GenQuery(g, QuerySpec{Edges: 2, MaxPredicates: 3, MinFocusPredicates: 2}, rng)
		if !ok {
			continue
		}
		if len(q.Nodes[q.Focus].Literals) < 2 {
			t.Fatalf("focus has %d predicates, want ≥ 2: %s", len(q.Nodes[q.Focus].Literals), q)
		}
	}
}

// TestGenWhyInvariants: generated Why-questions respect the paper's
// construction — the injected sequence is applicable, T is nonempty,
// and the exemplar matches the ground-truth answers it samples.
func TestGenWhyInvariants(t *testing.T) {
	g := mustBuild(Knowledge(2500, 11))
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(13))
	params := ops.Params{MaxBound: 3}
	got := 0
	for trial := 0; trial < 40 && got < 10; trial++ {
		inst, ok := GenWhy(g, m, WhySpec{
			Query:      QuerySpec{Edges: 2, MaxPredicates: 2},
			DisturbOps: 4,
			MaxTuples:  5,
		}, rng)
		if !ok {
			continue
		}
		got++
		if len(inst.E.Tuples) == 0 || len(inst.E.Tuples) > 5 {
			t.Fatalf("|T| = %d out of range", len(inst.E.Tuples))
		}
		if len(inst.AnswerStar) == 0 {
			t.Fatal("ground truth answer empty")
		}
		// Replaying the injected sequence on Q* must yield Q.
		q2, err := inst.Injected.Apply(inst.Qstar, params)
		if err != nil {
			t.Fatalf("injected sequence not applicable: %v", err)
		}
		if q2.Key() != inst.Q.Key() {
			t.Fatal("injected sequence does not reproduce the disturbed query")
		}
		// The disturbance hid at least one desired answer.
		missing := diffNodes(inst.AnswerStar, inst.Answer)
		if len(missing) == 0 {
			t.Fatal("nothing went missing; not a why-not question")
		}
	}
	if got < 5 {
		t.Fatalf("only %d instances generated", got)
	}
}

func TestGenWhyRelaxOnly(t *testing.T) {
	g := mustBuild(Offshore(2500, 17))
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		inst, ok := GenWhy(g, m, WhySpec{
			Query:      QuerySpec{Edges: 2, MaxPredicates: 3},
			DisturbOps: 2,
			MaxTuples:  5,
			RelaxOnly:  true,
		}, rng)
		if !ok {
			continue
		}
		for _, o := range inst.Injected {
			if !o.Kind.IsRelax() {
				t.Fatalf("RelaxOnly produced %s", o)
			}
		}
		return
	}
	t.Skip("no relax-only instance generated on this seed")
}

func TestFig1Deterministic(t *testing.T) {
	a, b := NewFig1(), NewFig1()
	if a.G.NumNodes() != b.G.NumNodes() || a.Q.Key() != b.Q.Key() {
		t.Error("Fig1 must be deterministic")
	}
	if len(a.Phones) != 6 || len(a.Carriers) != 3 {
		t.Error("Fig1 handles incomplete")
	}
}

func TestTupleAttrs(t *testing.T) {
	g := mustBuild(Products(1000, 21))
	q := query.New()
	u := q.AddNode("Product",
		query.Literal{Attr: "Price", Op: graph.GE, Val: graph.N(100)},
		query.Literal{Attr: "Rating", Op: graph.GE, Val: graph.N(3)},
	)
	q.Focus = u
	attrs := TupleAttrs(g, q)
	if len(attrs) != 2 || attrs[0] != "Price" || attrs[1] != "Rating" {
		t.Errorf("TupleAttrs should echo the focus predicate attrs, got %v", attrs)
	}
	// Without focus literals: falls back to low-cardinality attributes.
	q2 := query.New()
	q2.Focus = q2.AddNode("Product")
	fallback := TupleAttrs(g, q2)
	if len(fallback) == 0 {
		t.Error("fallback attrs empty")
	}
}
