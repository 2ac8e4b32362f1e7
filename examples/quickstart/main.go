// Quickstart: the paper's Fig 1 scenario built entirely through the
// public API. A user searches for premium Samsung-style cellphones,
// is unhappy with the answers, and describes the phones they actually
// want as two example tuples with value constraints; the library
// rewrites the query to match.
package main

import (
	"fmt"
	"log"

	"wqe"
)

func main() {
	// ── 1. An attributed product graph (a fragment of Fig 2) ────────
	b := wqe.NewGraphBuilder()
	phone := func(name string, display, storage, price, ram float64) wqe.NodeID {
		return b.AddNode("Cellphone", map[string]wqe.Value{
			"Name": wqe.S(name), "Display": wqe.N(display),
			"Storage": wqe.N(storage), "Price": wqe.N(price), "RAM": wqe.N(ram),
		})
	}
	p1 := phone("S9+", 5.8, 64, 840, 6)
	p2 := phone("Note8", 6.3, 64, 950, 6)
	p3 := phone("S9+v2", 6.2, 128, 799, 6)
	p4 := phone("Note8v2", 6.3, 64, 790, 4)
	p5 := phone("S8+", 6.2, 128, 840, 4)
	phone("J7", 5.5, 16, 300, 2)

	carrier := func(name string, discount float64) wqe.NodeID {
		return b.AddNode("Carrier", map[string]wqe.Value{
			"Name": wqe.S(name), "Discount": wqe.N(discount),
		})
	}
	sprint, att, tmobile := carrier("Sprint", 25), carrier("ATT", 10), carrier("TMobile", 25)
	for _, sale := range [][2]wqe.NodeID{{att, p1}, {att, p2}, {sprint, p3}, {sprint, p5}, {tmobile, p4}} {
		b.AddEdge(sale[0], sale[1], "sells")
	}
	wear := b.AddNode("Wearable", map[string]wqe.Value{"Name": wqe.S("GearS3")})
	sensor := b.AddNode("Sensor", map[string]wqe.Value{"Name": wqe.S("HeartRate")})
	b.AddEdge(wear, sensor, "has")
	for _, p := range []wqe.NodeID{p1, p2, p5} {
		b.AddEdge(p, wear, "pairs")
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// ── 2. The original query Q: pricey cellphones with a carrier and
	//       a sensor within two hops ──────────────────────────────────
	q := wqe.NewQuery()
	cell := q.AddNode("Cellphone",
		wqe.Literal{Attr: "Price", Op: wqe.GE, Val: wqe.N(840)},
		wqe.Literal{Attr: "RAM", Op: wqe.GE, Val: wqe.N(4)},
	)
	car := q.AddNode("Carrier")
	sen := q.AddNode("Sensor")
	q.AddEdge(car, cell, 1)
	q.AddEdge(cell, sen, 2)
	q.Focus = cell

	// ── 3. The exemplar: "I want a 6.2-inch phone with more storage
	//       than some 6.3-inch phone under $800" ─────────────────────
	e := &wqe.Exemplar{
		Tuples: []wqe.TuplePattern{
			{"Display": wqe.ConstCell(wqe.N(6.2)), "Storage": wqe.VarCell("x1"), "Price": wqe.WildcardCell()},
			{"Display": wqe.ConstCell(wqe.N(6.3)), "Storage": wqe.VarCell("x2"), "Price": wqe.VarCell("x3")},
		},
		Constraints: []wqe.Constraint{
			{Left: "x3", Op: wqe.LT, Val: wqe.N(800)},
			{Left: "x1", Op: wqe.GT, IsVar: true, Right: "x2"},
		},
	}

	// ── 4. Ask the Why-question and rewrite ──────────────────────────
	cfg := wqe.DefaultConfig()
	cfg.Budget = 4
	w, err := wqe.NewWhy(g, q, e, cfg)
	if err != nil {
		log.Fatal(err)
	}

	before := w.Matcher.Match(q)
	fmt.Println("Q:     ", q)
	fmt.Println("Q(G):  ", names(g, before.Answer), " — but the user wanted cheaper, bigger phones")
	fmt.Println("E:     ", e)

	a := w.AnsW()
	fmt.Println("\nQ':    ", a.Query)
	fmt.Printf("cost %.2f, closeness %.2f (theoretical optimum %.2f)\n", a.Cost, a.Closeness, w.ClStar)
	fmt.Println("Q'(G): ", names(g, a.Matches))
	fmt.Println("\nwhy (differential table):")
	for _, d := range a.Diff {
		fmt.Println("  ", d)
	}
}

func names(g *wqe.Graph, nodes []wqe.NodeID) []string {
	out := make([]string, len(nodes))
	for i, v := range nodes {
		name, _ := g.Attr(v, "Name")
		out[i] = name.String()
	}
	return out
}
