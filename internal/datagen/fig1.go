// Package datagen builds the synthetic graphs, query workloads, and
// Why-question instances behind the experimental evaluation (§7). The
// paper's real datasets (DBpedia, IMDB, ICIJ Offshore, WatDiv) are
// replaced by seeded generators that preserve their structural regimes
// (see DESIGN.md §4); the Fig 1/2 running example is reproduced
// exactly.
package datagen

import (
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// Fig1 bundles the paper's running example: the product knowledge
// graph of Fig 2, the original query Q of Fig 1, and the exemplar
// E = (T, C) of Example 2.3.
type Fig1 struct {
	G *graph.Graph
	Q *query.Query
	E *exemplar.Exemplar

	// Named nodes for assertions and demos.
	Phones   map[string]graph.NodeID // "P1".."P6"
	Carriers map[string]graph.NodeID
}

// NewFig1 constructs the running example. Ground truth facts it
// reproduces (Examples 2.1, 2.3, 3.1, 3.3):
//
//   - V_Cellphone has six candidates P1..P6;
//   - Q(G) = {P1, P2, P5};
//   - rep(E, V) = {P3, P4, P5} with cl = 1 each;
//   - the optimal rewrite under budget 4 applies
//     AddL(Carrier.Discount=25), RmE((Cellphone,Sensor), 2) and
//     RxL(Price ≥ 840 → Price ≥ 790), reaching Q'(G) = {P3, P4, P5}
//     and closeness 1/2.
func NewFig1() *Fig1 {
	b := graph.NewBuilder()
	phone := func(name string, display, storage, price, ram float64) graph.NodeID {
		return b.AddNode("Cellphone", map[string]graph.Value{
			"Name":    graph.S(name),
			"Display": graph.N(display),
			"Storage": graph.N(storage),
			"Price":   graph.N(price),
			"RAM":     graph.N(ram),
		})
	}
	p1 := phone("S9+", 5.8, 64, 840, 6)
	p2 := phone("Note8", 6.3, 64, 950, 6)
	p3 := phone("S9+v2", 6.2, 128, 799, 6)
	p4 := phone("Note8v2", 6.3, 64, 790, 4)
	p5 := phone("S8+", 6.2, 128, 840, 4)
	p6 := phone("J7", 5.5, 16, 300, 2)

	carrier := func(name string, discount float64) graph.NodeID {
		return b.AddNode("Carrier", map[string]graph.Value{
			"Name":     graph.S(name),
			"Discount": graph.N(discount),
		})
	}
	sprint := carrier("Sprint", 25)
	att := carrier("ATT", 10)
	tmobile := carrier("TMobile", 25)

	// Carriers sell cellphones. 25%-discount carriers do not sell P1/P2.
	b.AddEdge(att, p1, "sells")
	b.AddEdge(att, p2, "sells")
	b.AddEdge(sprint, p3, "sells")
	b.AddEdge(sprint, p5, "sells")
	b.AddEdge(tmobile, p4, "sells")
	b.AddEdge(att, p6, "sells")

	// Wearables and sensors: P1, P2, P5 reach a Sensor within two hops;
	// P3 and P4 have none (P3 "has no wearable sensors").
	wear := b.AddNode("Wearable", map[string]graph.Value{"Name": graph.S("GearS3")})
	sensor := b.AddNode("Sensor", map[string]graph.Value{"Name": graph.S("HeartRate")})
	b.AddEdge(wear, sensor, "has")
	b.AddEdge(p1, wear, "pairs")
	b.AddEdge(p2, wear, "pairs")
	b.AddEdge(p5, wear, "pairs")

	// Query Q (Fig 1): find Cellphones priced ≥ 840 with ≥ 4GB RAM,
	// sold by a Carrier, with a Sensor within two hops.
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

	// Exemplar (Example 2.3): t1 = ⟨Display=6.2, Storage=x1, Price=_⟩,
	// t2 = ⟨Display=6.3, Storage=x2, Price=x3⟩, C = {x3 < 800, x1 > x2}.
	e := &exemplar.Exemplar{
		Tuples: []exemplar.TuplePattern{
			{
				"Display": exemplar.C(graph.N(6.2)),
				"Storage": exemplar.V("x1"),
				"Price":   exemplar.W(),
			},
			{
				"Display": exemplar.C(graph.N(6.3)),
				"Storage": exemplar.V("x2"),
				"Price":   exemplar.V("x3"),
			},
		},
		Constraints: []exemplar.Constraint{
			{Left: "x3", Op: graph.LT, Val: graph.N(800)},
			{Left: "x1", Op: graph.GT, IsVar: true, Right: "x2"},
		},
	}

	return &Fig1{
		G: mustBuild(b), Q: q, E: e,
		Phones: map[string]graph.NodeID{
			"P1": p1, "P2": p2, "P3": p3, "P4": p4, "P5": p5, "P6": p6,
		},
		Carriers: map[string]graph.NodeID{
			"Sprint": sprint, "ATT": att, "TMobile": tmobile,
		},
	}
}

// mustBuild returns b's graph.
//
// invariant: b holds one of this package's graphs, whose values and
// attribute names are all ones Build admits, so Build cannot refuse it.
func mustBuild(b *graph.Builder) *graph.Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
