package match

import (
	"testing"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// keyFixture builds a small attributed graph and a 3-star query with
// literals — enough structure that key construction exercises every
// signature path (direction, bounds, literals, focus wildcarding).
func keyFixture() (*graph.Graph, *query.Query) {
	gb := graph.NewBuilder()
	phones := make([]graph.NodeID, 4)
	for i := range phones {
		phones[i] = gb.AddNode("phone", map[string]graph.Value{
			"price": graph.N(float64(100 + 50*i)),
			"brand": graph.S("x"),
		})
	}
	for i := 0; i < 3; i++ {
		store := gb.AddNode("store", map[string]graph.Value{"rating": graph.N(float64(i + 2))})
		maker := gb.AddNode("maker", nil)
		gb.AddEdge(store, phones[i], "sells")
		gb.AddEdge(maker, phones[i], "makes")
		gb.AddEdge(phones[i], phones[i+1], "rel")
	}
	g := mustBuild(gb)
	g.WarmCaches()

	q := query.New()
	p := q.AddNode("phone", query.Literal{Attr: "price", Op: graph.LE, Val: graph.N(250)})
	s := q.AddNode("store", query.Literal{Attr: "rating", Op: graph.GE, Val: graph.N(2)})
	mk := q.AddNode("maker")
	q.AddEdge(s, p, 1)
	q.AddEdge(mk, p, 2)
	q.Focus = p
	return g, q
}

// BenchmarkStarKeys measures cache-key construction for one evaluation:
// the per-star structural keys behind the per-graph prefix, in the one
// buffer Match keeps.
func BenchmarkStarKeys(b *testing.B) {
	g, q := keyFixture()
	m := NewMatcher(g, nil, NewCache(64, 0.95))
	stars := Decompose(q)
	b.ReportAllocs()
	b.ResetTimer()
	var sink string
	for i := 0; i < b.N; i++ {
		var kb []byte
		for _, s := range stars {
			kb = s.AppendKey(append(kb[:0], m.keyPrefix...), q)
			sink = string(kb)
		}
	}
	_ = sink
}

// BenchmarkQueryKey measures Query.Key, which every visited-set test of
// a search pays and which is the only engine code a memoized answer's
// request reaches (Session.answerKey).
func BenchmarkQueryKey(b *testing.B) {
	_, q := keyFixture()
	b.ReportAllocs()
	var sink string
	for i := 0; i < b.N; i++ {
		sink = q.Key()
	}
	_ = sink
}

// BenchmarkMatchWarmCache measures a full Match against a warm star
// cache — the steady-state Q-Chase evaluation cost, dominated by key
// construction and table reads rather than materialization.
func BenchmarkMatchWarmCache(b *testing.B) {
	g, q := keyFixture()
	m := NewMatcher(g, fixedDist{g}, NewCache(64, 0.95))
	m.Match(q) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(q)
	}
}

// fixedDist is a BFS-backed oracle without importing distindex's Auto
// heuristics (keeps the benchmark allocation profile about matching).
type fixedDist struct{ g *graph.Graph }

func (d fixedDist) Dist(s, t graph.NodeID) int { return d.g.Dist(s, t, d.g.NumNodes()) }
func (d fixedDist) Within(s, t graph.NodeID, bound int) bool {
	return d.g.Dist(s, t, bound) <= bound
}
