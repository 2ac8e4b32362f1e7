package wqe_test

import (
	"fmt"

	"wqe"
)

// ExampleNewWhy runs the paper's running example end to end: the
// original query misses the phones the user wants; the chase rewrites
// it within budget 4.
func ExampleNewWhy() {
	f := wqe.NewFig1Example()
	cfg := wqe.DefaultConfig()
	cfg.Budget = 4

	w, err := wqe.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		panic(err)
	}
	a := w.AnsW()
	fmt.Printf("closeness %.2f (optimum %.2f), %d answers, satisfied=%v\n",
		a.Closeness, w.ClStar, len(a.Matches), a.Satisfied)
	// Output:
	// closeness 0.50 (optimum 0.50), 3 answers, satisfied=true
}

// ExampleWhy_TopK suggests several alternative rewrites, best first.
func ExampleWhy_TopK() {
	f := wqe.NewFig1Example()
	cfg := wqe.DefaultConfig()
	cfg.Budget = 4
	w, _ := wqe.NewWhy(f.G, f.Q, f.E, cfg)

	for i, a := range w.TopK(2) {
		fmt.Printf("#%d: closeness %.2f with %d operators\n", i+1, a.Closeness, len(a.Ops))
	}
	// Output:
	// #1: closeness 0.50 with 3 operators
	// #2: closeness 0.50 with 3 operators
}

// ExampleWhy_AnsWE explains an empty answer: which constraints must go
// for the desired entity to match.
func ExampleWhy_AnsWE() {
	gb := wqe.NewGraphBuilder()
	brand := gb.AddNode("Brand", map[string]wqe.Value{"Name": wqe.S("Apple")})
	laptop := gb.AddNode("Laptop", map[string]wqe.Value{
		"Model": wqe.S("MR942CH/A"), "GPU": wqe.S("AMD"), "RAM": wqe.N(32),
	})
	gb.AddEdge(laptop, brand, "madeBy")

	q := wqe.NewQuery()
	l := q.AddNode("Laptop",
		wqe.Literal{Attr: "GPU", Op: wqe.EQ, Val: wqe.S("NVidia")},
		wqe.Literal{Attr: "RAM", Op: wqe.GE, Val: wqe.N(32)},
	)
	b := q.AddNode("Brand")
	q.AddEdge(l, b, 1)
	q.Focus = l

	e := &wqe.Exemplar{Tuples: []wqe.TuplePattern{{
		"Model": wqe.ConstCell(wqe.S("MR942CH/A")),
	}}}
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	w, _ := wqe.NewWhy(g, q, e, wqe.DefaultConfig())
	a := w.AnsWE()
	fmt.Println(a.Ops)
	// Output:
	// [RmL(u0, GPU = NVidia)]
}

// ExampleExemplarFromEntities builds an exemplar by pointing at
// entities, the non-expert input mode of §2.2.
func ExampleExemplarFromEntities() {
	f := wqe.NewFig1Example()
	e := wqe.ExemplarFromEntities(f.G,
		[]wqe.NodeID{f.Phones["P3"], f.Phones["P4"]},
		[]string{"Display"})
	fmt.Println(len(e.Tuples), "tuple patterns")
	// Output:
	// 2 tuple patterns
}
