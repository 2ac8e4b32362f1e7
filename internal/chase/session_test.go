package chase_test

import (
	"slices"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// TestSessionReusesCache: consecutive Why-questions in one session hit
// the shared star-view cache.
func TestSessionReusesCache(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	s := chase.NewSession(f.G, cfg)

	a1, err := s.Ask(f.Q, f.E)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Closeness != 0.5 {
		t.Fatalf("session AnsW closeness = %v", a1.Closeness)
	}
	h0, m0 := s.CacheStats()

	// The follow-up session re-asks from the rewrite; the cache must
	// serve some of its stars.
	e2 := exemplar.FromEntities(f.G,
		[]graph.NodeID{f.Phones["P3"], f.Phones["P5"]}, []string{"Display"})
	a2, err := s.AskFast(a1.Query, e2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Query == nil {
		t.Fatal("second session returned nothing")
	}
	h1, m1 := s.CacheStats()
	if h1 <= h0 {
		t.Errorf("second session gained no cache hits: %d/%d → %d/%d", h0, m0, h1, m1)
	}
}

// TestAskSharesTheJobPath: Ask and AskFast are Run of a job, so with
// the answer memo on, Run of the same job after them is a hit on the
// entry they filled and each pair runs one chase.
func TestAskSharesTheJobPath(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	cfg.AnswerCacheCap = 16
	s := chase.NewSession(f.G, cfg)

	pairs := []struct {
		name string
		ask  func() (chase.Answer, error)
		job  chase.BatchJob
	}{
		{"Ask", func() (chase.Answer, error) { return s.Ask(f.Q, f.E) },
			chase.BatchJob{Q: f.Q, E: f.E}},
		{"AskFast", func() (chase.Answer, error) { return s.AskFast(f.Q, f.E, 3) },
			chase.BatchJob{Q: f.Q, E: f.E, Algo: "heu"}},
		{"AskFast beam 0", func() (chase.Answer, error) { return s.AskFast(f.Q, f.E, 0) },
			chase.BatchJob{Q: f.Q, E: f.E, Algo: "heu", Beam: 1}},
	}
	for i, p := range pairs {
		a, err := p.ask()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		res := s.Run(p.job)
		if res.Err != nil {
			t.Fatalf("%s: Run: %v", p.name, res.Err)
		}
		if got, want := renderAnswer(res.Answer), renderAnswer(a); got != want {
			t.Errorf("%s: Run answered %s, want %s", p.name, got, want)
		}
		c := s.Counters()
		if c.Questions != int64(i+1) || c.AnswerCache.Hits != int64(i+1) {
			t.Errorf("after %s: %d questions and %d memo hits, want %d of each",
				p.name, c.Questions, c.AnswerCache.Hits, i+1)
		}
	}
}

func TestSessionRejectsTrivialExemplar(t *testing.T) {
	f := datagen.NewFig1()
	s := chase.NewSession(f.G, chase.DefaultConfig())
	bad := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{
		"Display": exemplar.C(graph.N(1234)),
	}}}
	if _, err := s.Ask(f.Q, bad); err == nil {
		t.Error("trivial exemplar must be rejected by sessions too")
	}
}

// TestAnsWMultiFocus: the appendix extension (Session.AskMultiFocus)
// answers one Why-question per focus node.
func TestAnsWMultiFocus(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Budget = 4

	carrierExemplar := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{
		"Discount": exemplar.C(graph.N(25)),
	}}}

	s := chase.NewSession(f.G, cfg)
	answers, err := s.AskMultiFocus(f.Q,
		[]query.NodeID{0, 1}, // cellphone and carrier
		[]*exemplar.Exemplar{f.E, carrierExemplar})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("got %d answers", len(answers))
	}
	if answers[0].Focus != 0 || answers[1].Focus != 1 {
		t.Error("focus bookkeeping wrong")
	}
	if answers[0].Answer.Closeness != 0.5 {
		t.Errorf("cellphone-focus closeness = %v, want 0.5", answers[0].Answer.Closeness)
	}
	// The carrier-focused question wants 25%-discount carriers.
	for _, v := range answers[1].Answer.Matches {
		if d, ok := f.G.Attr(v, "Discount"); !ok || !d.Equal(graph.N(25)) {
			t.Errorf("carrier-focus answer %d has discount %v", v, d)
		}
	}

	if _, err := s.AskMultiFocus(f.Q, []query.NodeID{0},
		[]*exemplar.Exemplar{f.E, carrierExemplar}); err == nil {
		t.Error("mismatched foci/exemplars must error")
	}
}

// TestSessionStarCacheSeparatesLiteralKinds: R → P{code = 5} asked with
// the number and then with the string, on one session and in both orders.
// The two literals render alike and select different P nodes; each
// question must get the answer a fresh session gives it, not the other's
// star table.
func TestSessionStarCacheSeparatesLiteralKinds(t *testing.T) {
	gb := graph.NewBuilder()
	pNum := gb.AddNode("P", map[string]graph.Value{"code": graph.N(5)})
	pStr := gb.AddNode("P", map[string]graph.Value{"code": graph.S("5")})
	rNum := gb.AddNode("R", map[string]graph.Value{"tag": graph.N(1)})
	rStr := gb.AddNode("R", map[string]graph.Value{"tag": graph.N(1)})
	gb.AddEdge(rNum, pNum, "has")
	gb.AddEdge(rStr, pStr, "has")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"tag": exemplar.C(graph.N(1))}}}
	ask := func(code graph.Value) *query.Query {
		q := query.New()
		r := q.AddNode("R")
		p := q.AddNode("P", query.Literal{Attr: "code", Op: graph.EQ, Val: code})
		q.AddEdge(r, p, 1)
		q.Focus = r
		return q
	}
	matches := func(s *chase.Session, q *query.Query) []graph.NodeID {
		w, err := s.Why(q, e)
		if err != nil {
			t.Fatal(err)
		}
		return w.Matcher.Match(q).Answer
	}
	codes := []graph.Value{graph.N(5), graph.S("5")}
	want := [][]graph.NodeID{{rNum}, {rStr}}
	for first := range codes {
		shared := chase.NewSession(g, chase.DefaultConfig())
		for _, i := range []int{first, 1 - first} {
			q := ask(codes[i])
			fresh := matches(chase.NewSession(g, chase.DefaultConfig()), q)
			if !slices.Equal(fresh, want[i]) {
				t.Fatalf("%s: a fresh session answers %v, want %v", q, fresh, want[i])
			}
			if got := matches(shared, q); !slices.Equal(got, fresh) {
				t.Errorf("%s asked after the other kind: %v, a fresh session answers %v", q, got, fresh)
			}
		}
	}
}
