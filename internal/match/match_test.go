package match

import (
	"math/rand"
	"testing"

	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/query"
)

func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	gb := graph.NewBuilder()
	labels := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		gb.AddNode(labels[rng.Intn(len(labels))], map[string]graph.Value{
			"x": graph.N(float64(rng.Intn(6))),
		})
	}
	for i := 0; i < m; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			gb.AddEdge(a, b, "")
		}
	}
	return mustBuild(gb)
}

func randomQuery(g *graph.Graph, rng *rand.Rand) *query.Query {
	return randomPattern(rng, 1+rng.Intn(3), 0)
}

// randomCyclicQuery is randomQuery with four or five nodes and up to two
// edges added to the tree: most of its patterns hold a cycle (a pair of
// opposite edges counts), the one shape whose search tests an edge
// between two nodes it has both assigned.
func randomCyclicQuery(rng *rand.Rand) *query.Query {
	return randomPattern(rng, 4+rng.Intn(2), 1+rng.Intn(2))
}

// randomPattern draws n nodes, connects them as a random tree, tries to
// add extra edges between distinct unlinked nodes, and picks the focus.
func randomPattern(rng *rand.Rand, n, extra int) *query.Query {
	labels := []string{"A", "B", "C", ""}
	q := query.New()
	for i := 0; i < n; i++ {
		u := q.AddNode(labels[rng.Intn(len(labels))])
		if rng.Intn(2) == 0 {
			op := []graph.Op{graph.GE, graph.LE, graph.EQ}[rng.Intn(3)]
			q.Nodes[u].Literals = append(q.Nodes[u].Literals,
				query.Literal{Attr: "x", Op: op, Val: graph.N(float64(rng.Intn(6)))})
		}
	}
	// Connect randomly as a tree.
	for i := 1; i < n; i++ {
		a, b := query.NodeID(rng.Intn(i)), query.NodeID(i)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		if q.FindEdge(a, b) < 0 {
			q.AddEdge(a, b, 1+rng.Intn(2))
		}
	}
	for i := 0; i < extra; i++ {
		a, b := query.NodeID(rng.Intn(n)), query.NodeID(rng.Intn(n))
		if a != b && q.FindEdge(a, b) < 0 {
			q.AddEdge(a, b, 1+rng.Intn(2))
		}
	}
	q.Focus = query.NodeID(rng.Intn(n))
	return q
}

// bruteAnswer enumerates every injective valuation by exhaustive
// recursion: the reference semantics for P-homomorphism matching.
func bruteAnswer(g *graph.Graph, q *query.Query) []graph.NodeID {
	var active []query.NodeID
	for u := range q.Nodes {
		if !q.IsolatedIgnored(query.NodeID(u)) {
			active = append(active, query.NodeID(u))
		}
	}
	h := map[query.NodeID]graph.NodeID{}
	used := map[graph.NodeID]bool{}
	answer := map[graph.NodeID]bool{}

	okSoFar := func() bool {
		for _, e := range q.Edges {
			hv, okF := h[e.From]
			hw, okT := h[e.To]
			if okF && okT {
				if g.Dist(hv, hw, e.Bound) > e.Bound {
					return false
				}
			}
		}
		return true
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(active) {
			answer[h[q.Focus]] = true
			return
		}
		u := active[i]
		for v := 0; v < g.NumNodes(); v++ {
			vv := graph.NodeID(v)
			if used[vv] || !q.IsCandidate(g, u, vv) {
				continue
			}
			h[u] = vv
			used[vv] = true
			if okSoFar() {
				rec(i + 1)
			}
			delete(h, u)
			delete(used, vv)
		}
	}
	rec(0)
	var out []graph.NodeID
	for v := range answer {
		out = append(out, v)
	}
	return out
}

func sameSet(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[graph.NodeID]bool{}
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		if !m[v] {
			return false
		}
	}
	return true
}

// TestMatcherAgainstBruteForce is the core matcher property: the
// star-view matcher agrees with exhaustive injective-valuation
// enumeration on random graphs and queries, with and without caching.
func TestMatcherAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cache := NewCache(256, 0.95)
	for trial := 0; trial < 120; trial++ {
		g := randomGraph(10+rng.Intn(8), 20+rng.Intn(20), int64(trial))
		q := randomQuery(g, rng)
		want := bruteAnswer(g, q)

		for _, c := range []*Cache{nil, cache} {
			m := NewMatcher(g, distindex.NewBFS(g), c)
			got := m.Match(q).Answer
			if !sameSet(got, want) {
				t.Fatalf("trial %d (cache=%v):\nQ: %s\ngot  %v\nwant %v",
					trial, c != nil, q, got, want)
			}
		}
	}
}

// TestMatcherAgainstBruteForceCyclic is TestMatcherAgainstBruteForce
// over cyclic patterns, the ones whose search tests an edge between two
// assigned nodes against the star tables.
func TestMatcherAgainstBruteForceCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cache := NewCache(256, 0.95)
	cyclic, answered := 0, 0
	for trial := 0; trial < 300; trial++ {
		// Denser graphs than TestMatcherAgainstBruteForce's, so that more
		// cycles have matches.
		g := randomGraph(10+rng.Intn(6), 30+rng.Intn(30), int64(trial))
		q := randomCyclicQuery(rng)
		if len(q.Edges) < len(q.Nodes) {
			continue
		}
		cyclic++
		want := bruteAnswer(g, q)
		if len(want) > 0 {
			answered++
		}
		for _, c := range []*Cache{nil, cache} {
			got := NewMatcher(g, nil, c).Match(q).Answer
			if !sameSet(got, want) {
				t.Fatalf("trial %d (cache=%v):\nQ: %s\ngot  %v\nwant %v",
					trial, c != nil, q, got, want)
			}
		}
	}
	if cyclic < 150 || answered < 50 {
		t.Fatalf("%d of 300 patterns are cyclic and %d of them have matches: want 150 and 50", cyclic, answered)
	}
}

// TestMatcherIgnoresIsolated: detached non-focus nodes pose no
// constraint.
func TestMatcherIgnoresIsolated(t *testing.T) {
	gb := graph.NewBuilder()
	a := gb.AddNode("A", nil)
	b := gb.AddNode("B", nil)
	gb.AddEdge(a, b, "")

	q := query.New()
	fa := q.AddNode("A")
	q.AddNode("Z") // isolated; no Z exists in the graph
	q.Focus = fa

	g := mustBuild(gb)
	m := NewMatcher(g, distindex.NewBFS(g), nil)
	got := m.Match(q).Answer
	if len(got) != 1 || got[0] != a {
		t.Errorf("isolated non-focus node must not constrain: got %v", got)
	}
}

func TestMatcherInjective(t *testing.T) {
	// Two query nodes with the same label need two distinct graph nodes.
	gb := graph.NewBuilder()
	a := gb.AddNode("A", nil)
	b := gb.AddNode("A", nil)
	gb.AddEdge(a, b, "")
	gb.AddEdge(b, a, "")

	q := query.New()
	u := q.AddNode("A")
	v := q.AddNode("A")
	w := q.AddNode("A")
	q.AddEdge(u, v, 1)
	q.AddEdge(v, w, 1)
	q.Focus = u

	g := mustBuild(gb)
	m := NewMatcher(g, distindex.NewBFS(g), nil)
	if got := m.Match(q).Answer; len(got) != 0 {
		t.Errorf("three injective A-nodes cannot fit in two: got %v", got)
	}
}

func TestEdgeToPathMatching(t *testing.T) {
	// a → x → b : bound 1 must fail, bound 2 must succeed.
	gb := graph.NewBuilder()
	a := gb.AddNode("A", nil)
	x := gb.AddNode("X", nil)
	b := gb.AddNode("B", nil)
	gb.AddEdge(a, x, "")
	gb.AddEdge(x, b, "")

	build := func(bound int) *query.Query {
		q := query.New()
		u := q.AddNode("A")
		v := q.AddNode("B")
		q.AddEdge(u, v, bound)
		q.Focus = u
		return q
	}
	g := mustBuild(gb)
	m := NewMatcher(g, distindex.NewBFS(g), nil)
	if got := m.Match(build(1)).Answer; len(got) != 0 {
		t.Errorf("bound 1 should not match a 2-hop path: %v", got)
	}
	if got := m.Match(build(2)).Answer; len(got) != 1 || got[0] != a {
		t.Errorf("bound 2 should match: %v", got)
	}
}

// TestDecomposeCovers: every query node and edge is covered by some
// star (§2.3), for random queries.
func TestDecomposeCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(10, 20, 3)
	for trial := 0; trial < 100; trial++ {
		q := randomQuery(g, rng)
		stars := Decompose(q)
		edgeCovered := make([]bool, len(q.Edges))
		nodeCovered := make([]bool, len(q.Nodes))
		for _, s := range stars {
			nodeCovered[s.Center] = true
			for _, e := range s.Edges {
				edgeCovered[e.EdgeIdx] = true
				nodeCovered[e.Other] = true
			}
		}
		for i, c := range edgeCovered {
			if !c {
				t.Fatalf("trial %d: edge %d uncovered in %s", trial, i, q)
			}
		}
		for u, c := range nodeCovered {
			if !c && !q.IsolatedIgnored(query.NodeID(u)) {
				t.Fatalf("trial %d: node %d uncovered in %s", trial, u, q)
			}
		}
	}
}

// TestStarKeyFocusLiteralInvariance: rewrites that only change focus
// literals share star cache keys (the §5.2 incremental-evaluation
// optimization).
func TestStarKeyFocusLiteralInvariance(t *testing.T) {
	build := func(price float64, carrierLit bool) *query.Query {
		q := query.New()
		cell := q.AddNode("Cellphone",
			query.Literal{Attr: "Price", Op: graph.GE, Val: graph.N(price)})
		car := q.AddNode("Carrier")
		if carrierLit {
			q.Nodes[car].Literals = append(q.Nodes[car].Literals,
				query.Literal{Attr: "Discount", Op: graph.EQ, Val: graph.N(25)})
		}
		q.AddEdge(car, cell, 1)
		q.Focus = cell
		return q
	}
	keysOf := func(q *query.Query) map[string]bool {
		out := map[string]bool{}
		for _, s := range Decompose(q) {
			out[s.Key(q)] = true
		}
		return out
	}
	k1 := keysOf(build(840, false))
	k2 := keysOf(build(790, false))
	for k := range k1 {
		if !k2[k] {
			t.Errorf("focus literal change must not change star keys: %v vs %v", k1, k2)
		}
	}
	k3 := keysOf(build(840, true))
	same := true
	for k := range k1 {
		if !k3[k] {
			same = false
		}
	}
	if same {
		t.Error("non-focus literal change must change some star key")
	}
}

func TestCacheEviction(t *testing.T) {
	// Single shard: whole-cache capacity semantics, so three keys must
	// contend for two slots regardless of how they hash.
	c := newCacheSharded(2, 0.95, 1)
	t1, t2, t3 := &StarTable{}, &StarTable{}, &StarTable{}
	c.Put("a", t1)
	c.Put("b", t2)
	// Heat up "a" so "b" is the least-hit entry.
	for i := 0; i < 5; i++ {
		c.Get("a")
	}
	c.Put("c", t3)
	if c.Len() != 2 {
		t.Fatalf("cache overflow: %d entries", c.Len())
	}
	if c.Get("a") == nil {
		t.Error("hot entry evicted")
	}
	if c.Get("b") != nil {
		t.Error("cold entry survived")
	}
	if k := c.Counters(); k.Hits == 0 || k.Misses == 0 {
		t.Errorf("stats not tracked: %+v", k)
	}
}

func TestCacheDecay(t *testing.T) {
	// Single shard: decay rides the shard's tick clock, so the keys
	// must share one shard for Get("new") traffic to age "old".
	c := newCacheSharded(2, 0.5, 1)
	c.Put("old", &StarTable{})
	for i := 0; i < 10; i++ {
		c.Get("old")
	}
	c.Put("new", &StarTable{})
	// Let "old" decay by touching the clock through other keys.
	for i := 0; i < 60; i++ {
		c.Get("new")
	}
	c.Put("third", &StarTable{})
	if c.Get("old") != nil {
		t.Error("decayed entry should have been evicted despite early hits")
	}
}

func TestStarTableSize(t *testing.T) {
	g := randomGraph(12, 24, 5)
	q := query.New()
	u := q.AddNode("A")
	v := q.AddNode("B")
	q.AddEdge(u, v, 2)
	q.Focus = u
	m := NewMatcher(g, distindex.NewBFS(g), nil)
	res := m.Match(q)
	for _, inst := range res.Stars {
		if inst.Table.Size() < inst.Table.NumRows() {
			t.Error("Size must count at least the rows")
		}
		for _, c := range inst.Cols {
			if c < 0 {
				t.Error("fresh tables must map all columns")
			}
		}
	}
}

func BenchmarkMatchTwoEdgeQuery(b *testing.B) {
	g := randomGraph(3000, 9000, 7)
	rng := rand.New(rand.NewSource(9))
	q := randomQuery(g, rng)
	m := NewMatcher(g, distindex.NewBFS(g), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(q)
	}
}

func BenchmarkMatchCached(b *testing.B) {
	g := randomGraph(3000, 9000, 7)
	rng := rand.New(rand.NewSource(9))
	q := randomQuery(g, rng)
	m := NewMatcher(g, distindex.NewBFS(g), NewCache(128, 0.95))
	m.Match(q) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(q)
	}
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
