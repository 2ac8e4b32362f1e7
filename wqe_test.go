package wqe_test

import (
	"testing"

	"wqe"
)

// TestPublicAPIRoundtrip drives the whole public surface on the paper's
// running example: graph building, query building, exemplar
// construction, every algorithm entry point, and the workload
// generators.
func TestPublicAPIRoundtrip(t *testing.T) {
	f := wqe.NewFig1Example()

	cfg := wqe.DefaultConfig()
	cfg.Budget = 4
	w, err := wqe.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatal(err)
	}

	a := w.AnsW()
	if a.Closeness != 0.5 || !a.Satisfied {
		t.Errorf("AnsW on Fig 1: cl=%v sat=%v, want 0.5/true", a.Closeness, a.Satisfied)
	}
	if h := w.AnsHeu(3); h.Closeness != 0.5 {
		t.Errorf("AnsHeu on Fig 1: cl=%v", h.Closeness)
	}
	if tk := w.TopK(2); len(tk) != 2 || tk[0].Closeness < tk[1].Closeness {
		t.Errorf("TopK ordering broken")
	}
	if m := w.ApxWhyM(); m.Query == nil {
		t.Error("ApxWhyM returned nil query")
	}
	if e := w.AnsWE(); e.Query == nil {
		t.Error("AnsWE returned nil query")
	}
	if b := w.FMAnsW(); b.Query == nil {
		t.Error("FMAnsW returned nil query")
	}
}

func TestPublicGraphAndValues(t *testing.T) {
	gb := wqe.NewGraphBuilder()
	v := gb.AddNode("Thing", map[string]wqe.Value{
		"price": wqe.ParseValue("$42"),
		"name":  wqe.S("widget"),
	})
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Attr(v, "price"); !got.Equal(wqe.N(42)) {
		t.Errorf("ParseValue($42) = %v", got)
	}
	if !wqe.GE.Holds(wqe.N(5), wqe.N(4)) {
		t.Error("operator re-export broken")
	}

	q := wqe.NewQuery()
	u := q.AddNode("Thing", wqe.Literal{Attr: "price", Op: wqe.GE, Val: wqe.N(40)})
	q.Focus = u
	m := wqe.NewMatcher(g, wqe.NewDistIndex(g), wqe.NewStarCache(16, 0.95))
	if res := m.Match(q); len(res.Answer) != 1 {
		t.Errorf("public matcher broken: %v", res.Answer)
	}
}

func TestPublicDatasets(t *testing.T) {
	for _, name := range []string{wqe.DatasetKnowledge, wqe.DatasetMovies, wqe.DatasetOffshore, wqe.DatasetProducts} {
		g, err := wqe.GenerateDataset(name, 600, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumNodes() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
	if _, err := wqe.GenerateDataset("unknown", 10, 1); err == nil {
		t.Error("unknown dataset must error")
	}

	g, _ := wqe.GenerateDataset(wqe.DatasetProducts, 2000, 5)
	inst, ok := wqe.GenerateWhyQuestion(g, wqe.WorkloadSpec{
		Query:      wqe.QueryWorkload{Edges: 2, MaxPredicates: 2},
		DisturbOps: 3,
	}, 9)
	if !ok {
		t.Skip("no instance on this seed")
	}
	if inst.Q == nil || inst.E == nil || len(inst.AnswerStar) == 0 {
		t.Error("incomplete why-question instance")
	}
}

func TestExemplarFromEntitiesPublic(t *testing.T) {
	f := wqe.NewFig1Example()
	e := wqe.ExemplarFromEntities(f.G, []wqe.NodeID{f.Phones["P3"], f.Phones["P4"]}, []string{"Display"})
	if len(e.Tuples) != 2 {
		t.Errorf("entity exemplar has %d tuples", len(e.Tuples))
	}
	cfg := wqe.DefaultConfig()
	if _, err := wqe.NewWhy(f.G, f.Q, e, cfg); err != nil {
		t.Errorf("entity exemplar rejected: %v", err)
	}
}
