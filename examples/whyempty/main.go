// Why-Empty (§6.1, mirroring the Fig 11 laptop case study): a
// hand-built computer-store query is so over-constrained it returns
// nothing. The user names one model they know should match; AnsWE finds
// the cheapest removal-only rewrite that surfaces it, explaining which
// constraints were responsible for the empty answer.
package main

import (
	"fmt"
	"log"

	"wqe"
)

func main() {
	g, err := buildStore()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("computer store graph:", g)

	// Q_b-style query: recent laptops with a big screen, lots of RAM,
	// an NVidia GPU, and a brand one hop away.
	q := wqe.NewQuery()
	laptop := q.AddNode("Laptop",
		wqe.Literal{Attr: "Year", Op: wqe.GE, Val: wqe.N(2018)},
		wqe.Literal{Attr: "Screen", Op: wqe.GE, Val: wqe.N(15)},
		wqe.Literal{Attr: "RAM", Op: wqe.GE, Val: wqe.N(32)},
		wqe.Literal{Attr: "GPU", Op: wqe.EQ, Val: wqe.S("NVidia")},
	)
	brand := q.AddNode("Brand")
	q.AddEdge(laptop, brand, 1)
	q.Focus = laptop

	// The user wonders why MR942CH/A-style MacBooks are missing.
	e := &wqe.Exemplar{Tuples: []wqe.TuplePattern{{
		"Model": wqe.ConstCell(wqe.S("MR942CH/A")),
	}}}

	cfg := wqe.DefaultConfig()
	cfg.Budget = 3
	w, err := wqe.NewWhy(g, q, e, cfg)
	if err != nil {
		log.Fatal(err)
	}

	before := w.Matcher.Match(q)
	fmt.Println("\nquery:", q)
	fmt.Printf("Q(G) has %d answers — why is it empty?\n", len(before.Answer))

	a := w.AnsWE()
	fmt.Println("\nAnsWE rewrite:", a.Query)
	for _, o := range a.Ops {
		fmt.Println("  ·", o)
	}
	fmt.Print("answers now: ")
	for _, v := range a.Matches {
		model, _ := g.Attr(v, "Model")
		fmt.Printf("%s ", model)
	}
	fmt.Printf("\n(%d chase steps, %v)\n", w.Stats.Steps, w.Stats.Elapsed.Round(1000))
}

// buildStore creates a small laptop catalog in which nothing satisfies
// all four constraints at once: the NVidia machines are older or
// smaller, and the desired MacBooks ship AMD or Intel GPUs.
func buildStore() (*wqe.Graph, error) {
	b := wqe.NewGraphBuilder()
	apple := b.AddNode("Brand", map[string]wqe.Value{"Name": wqe.S("Apple")})
	dell := b.AddNode("Brand", map[string]wqe.Value{"Name": wqe.S("Dell")})
	lenovo := b.AddNode("Brand", map[string]wqe.Value{"Name": wqe.S("Lenovo")})

	add := func(model string, year, screen, ram float64, gpu string, brand wqe.NodeID) {
		l := b.AddNode("Laptop", map[string]wqe.Value{
			"Model": wqe.S(model), "Year": wqe.N(year), "Screen": wqe.N(screen),
			"RAM": wqe.N(ram), "GPU": wqe.S(gpu),
		})
		b.AddEdge(l, brand, "madeBy")
	}
	add("MR942CH/A", 2018, 15.4, 32, "AMD", apple)
	add("MR942LL/A", 2018, 15.4, 32, "AMD", apple)
	add("MV912LL/A", 2019, 15.4, 32, "Intel", apple)
	add("XPS-9570", 2018, 15.6, 16, "NVidia", dell)
	add("XPS-9380", 2019, 13.3, 16, "Intel", dell)
	add("P52", 2017, 15.6, 32, "NVidia", lenovo)
	add("X1-Extreme", 2019, 15.6, 32, "NVidia", lenovo)
	add("T480", 2018, 14.0, 32, "Intel", lenovo)
	return b.Build()
}
