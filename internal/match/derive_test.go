package match_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// MatchFrom takes from a parent's result what the rewrite left unchanged.
// The tests here hold it to one thing — a table derived from a parent is,
// field for field, the table a fresh build returns, and so MatchFrom is
// Match — on rewrites met the way the searches meet them: the operators
// GenRefine and GenRelax emit, applied level by level below generated
// why-questions, each child evaluated beside its parent's result.

// walkRewrites visits, below the question's query, the rewrites its picky
// operators lead to, three levels deep: at most two operators per kind
// and pattern node at each state (so AddL on every node, not only the
// top-scored focus literals), a bounded number of states per level. visit
// evaluates a rewrite beside its parent's result (nil for the question's
// own query) and returns the result its children are evaluated beside.
func walkRewrites(w *chase.Why, what string, visit func(what string, parent *match.Result, q *query.Query) *match.Result) {
	type state struct {
		what string
		q    *query.Query
		res  *match.Result
	}
	frontier := []state{{what, w.Q, visit(what, nil, w.Q)}}
	seen := map[string]bool{w.Q.Key(): true}
	for depth := 1; depth <= 3 && len(frontier) > 0; depth++ {
		var next []state
		for si, s := range frontier {
			type slot struct {
				kind ops.Kind
				u    query.NodeID
			}
			taken := map[slot]int{}
			pool := w.GenRefine(s.res, nil, w.Cfg.Budget)
			pool = append(pool, w.GenRelax(s.res, nil, w.Cfg.Budget)...)
			for i, o := range pool {
				k := slot{o.Op.Kind, o.Op.U}
				if taken[k] == 2 || len(next) >= 60 {
					continue
				}
				q2, err := o.Op.Apply(s.q)
				if err != nil || seen[q2.Key()] {
					continue
				}
				seen[q2.Key()] = true
				taken[k]++
				name := fmt.Sprintf("%s depth %d state %d op %d %s", what, depth, si, i, o.Op)
				next = append(next, state{name, q2, visit(name, s.res, q2)})
			}
		}
		frontier = next
	}
}

// datasetWhys compiles a few seeded why-questions on every dataset kind.
func datasetWhys(t *testing.T, perKind int, visit func(what string, w *chase.Why)) {
	t.Helper()
	for _, dataset := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies, datagen.DatasetOffshore, datagen.DatasetProducts} {
		g, err := datagen.Generate(dataset, 1500, 23)
		if err != nil {
			t.Fatal(err)
		}
		m := match.NewMatcher(g, distindex.NewBFS(g), nil)
		rng := rand.New(rand.NewSource(37))
		instances := 0
		for tries := 0; instances < perKind && tries < 400; tries++ {
			inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
				Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2 + tries%2, MaxPredicates: 2, PathEdgeProb: 0.3},
				DisturbOps: 3,
				MaxTuples:  5,
			}, rng)
			if !ok {
				continue
			}
			instances++
			w, err := chase.NewWhy(g, inst.Q, inst.E, chase.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			// One stripe of 16 tables: evictions, so unchanged stars
			// come back as misses.
			w.Matcher.Cache = match.NewStripedCache(16, 1)
			visit(fmt.Sprintf("%s instance %d", dataset, instances), w)
		}
		if instances < perKind {
			t.Fatalf("%s: only %d instances", dataset, instances)
		}
	}
}

// edgeWhys compiles questions over a graph whose partner attributes have
// the shapes of edgeCases() in internal/chase/gen_refine_oracle_test.go,
// which this package cannot import: -0 beside 0 (stored as one 0), a
// Number carrying a Str, a number and a string rendering alike, "kv"="=w"
// beside "k"="v=w" — so that the literals AddL puts on the partner, and
// the checks a derivation re-tests with, meet them.
func edgeWhys(t *testing.T, visit func(what string, w *chase.Why)) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	gb := graph.NewBuilder()
	const nF, nP = 120, 200
	for i := 0; i < nF; i++ {
		gb.AddNode("F", map[string]graph.Value{"good": graph.N(float64(i % 2)), "size": graph.N(float64(i % 5))})
	}
	aVals := []graph.Value{graph.N(0), graph.N(math.Copysign(0, -1)), graph.N(5), graph.S("5"), graph.S("x")}
	cVals := []graph.Value{graph.N(1), graph.N(2), graph.N(3), graph.S("NaN"), graph.N(0)}
	dVals := []graph.Value{graph.N(5), {Kind: graph.Number, Num: 5, Str: "five"}, graph.N(6), {Kind: graph.Number, Num: 5, Str: "V"}, graph.N(4)}
	for i := 0; i < nP; i++ {
		attrs := map[string]graph.Value{
			"a": aVals[rng.Intn(len(aVals))],
			"b": graph.N(float64(1 + rng.Intn(4))),
			"c": cVals[i%len(cVals)],
			"d": dVals[(i/2)%len(dVals)],
		}
		switch rng.Intn(3) {
		case 0:
			attrs["kv"] = graph.S("=w")
		case 1:
			attrs["k"] = graph.S("v=w")
		}
		gb.AddNode("P", attrs)
	}
	for i := 0; i < nF; i++ {
		for _, p := range rng.Perm(nP)[:1+rng.Intn(4)] {
			gb.AddEdge(graph.NodeID(i), graph.NodeID(nF+p), "has")
			if rng.Intn(3) == 0 {
				gb.AddEdge(graph.NodeID(nF+p), graph.NodeID(nF+(p+1)%nP), "near")
			}
		}
	}
	g := mustBuild(gb)
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"good": exemplar.C(graph.N(1))}}}
	for _, tc := range []struct {
		name    string
		partner []query.Literal
	}{
		{"plain", nil},
		{"partner = -0", []query.Literal{{Attr: "a", Op: graph.EQ, Val: graph.N(math.Copysign(0, -1))}}},
		{"partner >= 1", []query.Literal{{Attr: "c", Op: graph.GE, Val: graph.N(1)}}},
		{"partner <= 6", []query.Literal{{Attr: "d", Op: graph.LE, Val: graph.N(6)}}},
	} {
		name := tc.name
		q := query.New()
		f := q.AddNode("F")
		p := q.AddNode("P", tc.partner...)
		p2 := q.AddNode("P")
		q.AddEdge(f, p, 1)
		q.AddEdge(p, p2, 1)
		q.Focus = f
		w, err := chase.NewWhy(g, q, e, chase.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		visit("edge-case "+name, w)
	}
}

// parentStar returns the parent's star centered where s is.
func parentStar(parent *match.Result, s *match.StarQuery) *match.StarInstance {
	for i := range parent.Stars {
		if parent.Stars[i].Star.Center == s.Center {
			return &parent.Stars[i]
		}
	}
	return nil
}

// gained reports whether pattern node u of q carries a literal it lacks
// in pq.
func gained(pq, q *query.Query, u query.NodeID) bool {
	for _, l := range q.Nodes[u].Literals {
		if !pq.HasLiteral(u, l) {
			return true
		}
	}
	return false
}

// sameRows compares table got, whose column cols[k] serves star edge k
// (and whose last column is the augmented one), with the freshly built
// want through the accessors the matcher reads.
func sameRows(t *testing.T, what string, got *match.StarTable, cols []int, want *match.StarTable) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows, a fresh build has %d", what, got.NumRows(), want.NumRows())
	}
	edges := len(want.Star.Edges)
	for r := 0; r < want.NumRows(); r++ {
		if got.Center(r) != want.Center(r) {
			t.Fatalf("%s: row %d is center %d, a fresh build has %d", what, r, got.Center(r), want.Center(r))
		}
		for k := 0; k < edges; k++ {
			if !slices.Equal(got.Col(r, cols[k]), want.Col(r, k)) {
				t.Fatalf("%s: center %d edge %d holds %v, a fresh build %v", what, want.Center(r), k, got.Col(r, cols[k]), want.Col(r, k))
			}
		}
		if s := want.Star; !s.HasFocus && s.AugDist > 0 && !slices.Equal(got.Col(r, edges), want.Col(r, edges)) {
			t.Fatalf("%s: center %d augmented column holds %v, a fresh build %v", what, want.Center(r), got.Col(r, edges), want.Col(r, edges))
		}
	}
}

// derivedShapes counts what a sweep derived, by what was tightened and
// from what, so the test can insist it saw each.
type derivedShapes struct {
	derived, reused, fresh            int
	center, leaf, both, aug, permuted int
	edge, droppedRows                 int
}

// checkDerived derives every star of q from parent and compares what
// comes back with a fresh build of the same star.
func (sh *derivedShapes) checkDerived(t *testing.T, what string, g *graph.Graph, parent *match.Result, q *query.Query) {
	t.Helper()
	for si, s := range match.Decompose(q) {
		what := fmt.Sprintf("%s star %d", what, si)
		got := match.DeriveStarTable(g, parent, q, s)
		if got == nil {
			sh.fresh++
			continue
		}
		want := match.BuildStarTable(g, q, s)
		pi := parentStar(parent, s)
		if got == pi.Table {
			// The unchanged star: the parent's own table, columns where
			// the parent's star has them.
			sh.reused++
			sameRows(t, what, got, pi.Cols, want)
			continue
		}
		if diff := match.TableDiff(got, want); diff != "" {
			t.Fatalf("%s: derived table differs from a fresh build of %s (parent %s): %s", what, q, parent.Query, diff)
		}
		sh.derived++
		center := s.Center != q.Focus && gained(parent.Query, q, s.Center)
		leaf := false
		for _, e := range s.Edges {
			leaf = leaf || (e.Other != q.Focus && gained(parent.Query, q, e.Other))
		}
		switch {
		case center && leaf:
			sh.both++
		case center:
			sh.center++
		case leaf:
			sh.leaf++
		default:
			t.Fatalf("%s: a table was derived though no literal was added to the star", what)
		}
		if !s.HasFocus && s.AugDist > 0 {
			sh.aug++
		}
		for k, c := range pi.Cols {
			if c != k {
				sh.permuted++
				break
			}
		}
		if got.NumRows() < pi.Table.NumRows() {
			sh.droppedRows++
		}
	}
}

// TestDerivedTablesEqualFreshBuilds: every table deriveStarTable returns
// on the walked rewrites of the four dataset kinds and of the edge-case
// graph has the centers, offsets, cells, focus list, width and column
// signatures buildStarTable gives the same star; then the shapes the walk
// may not reach, by hand.
func TestDerivedTablesEqualFreshBuilds(t *testing.T) {
	var sh derivedShapes
	// Every sweep evaluates behind the question's own star cache.
	sweep := func(what string, w *chase.Why) {
		walkRewrites(w, what, func(what string, parent *match.Result, q *query.Query) *match.Result {
			sh.checkDerived(t, what, w.G, parent, q)
			return w.Matcher.MatchFrom(parent, q)
		})
	}
	datasetWhys(t, 14, sweep)
	datasets := sh.derived
	edgeWhys(t, sweep)
	sh.edge = sh.derived - datasets

	// By hand, on the chain graph of the table oracle: a0 → b0 → c0 → d0,
	// a1 → b1, b2 → c2, a0 → b2.
	gb := graph.NewBuilder()
	node := func(label string, x float64) graph.NodeID {
		return gb.AddNode(label, map[string]graph.Value{"x": graph.N(x)})
	}
	a0, b0, c0, d0 := node("A", 0), node("B", 1), node("C", 0), node("D", 0)
	a1, b1 := node("A", 1), node("B", 2)
	b2, c2 := node("B", 1), node("C", 1)
	d1 := node("D", 3)
	for _, e := range [][2]graph.NodeID{{a0, b0}, {b0, c0}, {c0, d0}, {a1, b1}, {b2, c2}, {a0, b2}, {c2, d1}} {
		gb.AddEdge(e[0], e[1], "e")
	}
	lit := func(x float64) query.Literal { return query.Literal{Attr: "x", Op: graph.EQ, Val: graph.N(x)} }
	with := func(q *query.Query, u query.NodeID, l query.Literal) *query.Query {
		c := q.Clone()
		c.Nodes[u].Literals = append(c.Nodes[u].Literals, l)
		return c
	}
	chain := query.New() // A* → B → C → D: the star at C is augmented
	ua := chain.AddNode("A")
	ub := chain.AddNode("B")
	uc := chain.AddNode("C")
	ud := chain.AddNode("D")
	chain.AddEdge(ua, ub, 1)
	chain.AddEdge(ub, uc, 1)
	chain.AddEdge(uc, ud, 1)
	chain.Focus = ua

	g := mustBuild(gb)
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	before := sh
	parent := m.Match(chain)
	for _, tc := range []struct {
		name string
		q    *query.Query
	}{
		{"center of the augmented star", with(chain, uc, lit(0))},
		{"leaf of the augmented star", with(chain, ud, lit(0))},
		{"both", with(with(chain, uc, lit(1)), ud, lit(3))},
		{"a leaf no row keeps", with(chain, ud, lit(7))},
	} {
		sh.checkDerived(t, "chain, "+tc.name, g, parent, tc.q)
	}
	if sh.aug == before.aug || sh.center == before.center || sh.leaf == before.leaf || sh.both == before.both {
		t.Errorf("the hand-built chain derived %+v after %+v: want an augmented star tightened at its center, at a leaf, and at both", sh, before)
	}

	// A parent table fetched from the cache with its columns in another
	// order: the same star asked first with its edges listed the other way
	// round.
	star := query.New() // A → B* → C
	sb := star.AddNode("B")
	sa := star.AddNode("A")
	sc := star.AddNode("C")
	star.AddEdge(sa, sb, 1)
	star.AddEdge(sb, sc, 1)
	star.Focus = sb
	flipped := star.Clone()
	flipped.Edges[0], flipped.Edges[1] = flipped.Edges[1], flipped.Edges[0]
	cached := match.NewMatcher(g, distindex.NewBFS(g), match.NewCache(16, 0.95))
	cached.Match(flipped)
	parent = cached.Match(star)
	if cols := parent.Stars[0].Cols; len(cols) != 2 || cols[0] != 1 || cols[1] != 0 {
		t.Fatalf("the cached table's columns map as %v: want them swapped", cols)
	}
	before = sh
	sh.checkDerived(t, "permuted parent", g, parent, with(star, sc, lit(0)))
	sh.checkDerived(t, "permuted parent, unchanged star", g, parent, with(star, sb, lit(1)))
	if sh.permuted == before.permuted || sh.reused == before.reused {
		t.Errorf("the permuted parent derived %+v after %+v: want a derivation and a reuse", sh, before)
	}

	t.Logf("%+v", sh)
	if sh.derived < 1000 || sh.edge == 0 || sh.reused == 0 || sh.fresh == 0 || sh.droppedRows == 0 {
		t.Errorf("%+v: want at least 1000 derived tables, some on the edge-case graph, some losing rows, and both reuses and fresh builds beside them", sh)
	}
}

// sameResult compares what MatchFrom returned with what Match returns:
// the answer, the candidate lists and every star table as read through
// its column map.
func sameResult(t *testing.T, what string, got, want *match.Result) {
	t.Helper()
	if !slices.Equal(got.Answer, want.Answer) {
		t.Fatalf("%s: answer %v, Match gives %v", what, got.Answer, want.Answer)
	}
	if len(got.Candidates) != len(want.Candidates) || len(got.Stars) != len(want.Stars) {
		t.Fatalf("%s: %d candidate lists and %d stars, Match gives %d and %d",
			what, len(got.Candidates), len(got.Stars), len(want.Candidates), len(want.Stars))
	}
	for u := range want.Candidates {
		if (got.Candidates[u] == nil) != (want.Candidates[u] == nil) || !slices.Equal(got.Candidates[u], want.Candidates[u]) {
			t.Fatalf("%s: candidates of u%d are %v, Match gives %v", what, u, got.Candidates[u], want.Candidates[u])
		}
	}
	for i, inst := range want.Stars {
		if got.Stars[i].Star.Center != inst.Star.Center {
			t.Fatalf("%s: star %d is centered at u%d, Match centers it at u%d", what, i, got.Stars[i].Star.Center, inst.Star.Center)
		}
		sameRows(t, fmt.Sprintf("%s star %d", what, i), got.Stars[i].Table, got.Stars[i].Cols, inst.Table)
		for _, c := range want.Candidates[want.Query.Focus] {
			if got.Stars[i].Table.SupportsFocus(c) != inst.Table.SupportsFocus(c) {
				t.Fatalf("%s star %d: SupportsFocus(%d) differs from a fresh table's", what, i, c)
			}
		}
	}
}

// TestMatchFromEqualsMatch: on the same walks — through a small star
// cache that evicts on the dataset kinds — MatchFrom beside the parent's
// result returns what a cache-less Match of the rewrite alone returns.
func TestMatchFromEqualsMatch(t *testing.T) {
	pairs := 0
	sweep := func(what string, w *chase.Why) {
		alone := match.NewMatcher(w.G, nil, nil)
		walkRewrites(w, what, func(what string, parent *match.Result, q *query.Query) *match.Result {
			got := w.Matcher.MatchFrom(parent, q)
			sameResult(t, what, got, alone.Match(q))
			if parent != nil {
				pairs++
			}
			return got
		})
	}
	datasetWhys(t, 3, sweep)
	edgeWhys(t, sweep)
	if pairs < 500 {
		t.Errorf("compared %d rewrites with their parents: want at least 500", pairs)
	}
}

// TestMatchFromFallsBack: where the parent has nothing the rewrite may
// take, MatchFrom derives nothing and still returns what Match returns.
func TestMatchFromFallsBack(t *testing.T) {
	// A_i → B_2i, B_2i+1; B_j → C_j, C_j+1: every pattern below matches.
	gb := graph.NewBuilder()
	const n = 24
	attrs := func(i int) map[string]graph.Value {
		return map[string]graph.Value{"x": graph.N(float64(i % 3)), "y": graph.N(float64(i % 5))}
	}
	for i := 0; i < n; i++ {
		gb.AddNode("A", attrs(i))
	}
	for i := 0; i < 2*n; i++ {
		gb.AddNode("B", attrs(i))
	}
	for i := 0; i < 2*n; i++ {
		gb.AddNode("C", attrs(i))
	}
	for i := 0; i < n; i++ {
		gb.AddNode("D", attrs(i))
	}
	for i := 0; i < n; i++ {
		gb.AddEdge(graph.NodeID(i), graph.NodeID(n+2*i), "e")
		gb.AddEdge(graph.NodeID(i), graph.NodeID(n+2*i+1), "e")
		gb.AddEdge(graph.NodeID(i), graph.NodeID(5*n+i), "e")
	}
	for j := 0; j < 2*n; j++ {
		gb.AddEdge(graph.NodeID(n+j), graph.NodeID(3*n+j), "e")
		gb.AddEdge(graph.NodeID(n+j), graph.NodeID(3*n+(j+1)%(2*n)), "e")
	}
	eq := func(attr string, x float64) query.Literal {
		return query.Literal{Attr: attr, Op: graph.EQ, Val: graph.N(x)}
	}
	le := func(attr string, x float64) query.Literal {
		return query.Literal{Attr: attr, Op: graph.LE, Val: graph.N(x)}
	}
	// base: A* → B{x = 1, y <= 2} → C, one star centered at B.
	const ua, ub, uc = 0, 1, 2
	base := query.New()
	base.AddNode("A")
	base.AddNode("B", eq("x", 1), le("y", 2))
	base.AddNode("C")
	base.AddEdge(ua, ub, 1)
	base.AddEdge(ub, uc, 1)
	base.Focus = ua
	edit := func(q *query.Query, f func(q *query.Query)) *query.Query {
		c := q.Clone()
		f(c)
		return c
	}
	cut := edit(base, func(q *query.Query) { q.Edges = q.Edges[1:] }) // RmE(A, B): the star at B loses the focus

	g := mustBuild(gb)
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	const (
		builds  = iota // every star is built afresh
		reuses         // the star at B is the parent's table itself
		derives        // the star at B is a filtered copy of the parent's
	)
	for _, tc := range []struct {
		name   string
		parent *query.Query // nil: no parent
		q      *query.Query
		atB    int // what becomes of the star centered at B
		atA    int // and of a star centered at the focus, if there is one
	}{
		{"no parent", nil, base, builds, builds},
		{"the child drops a literal", base, edit(base, func(q *query.Query) { q.Nodes[ub].Literals = q.Nodes[ub].Literals[:1] }), builds, builds},
		{"the child loosens a literal", base, edit(base, func(q *query.Query) { q.Nodes[ub].Literals[1] = le("y", 3) }), builds, builds},
		{"the child tightens a literal in place", base, edit(base, func(q *query.Query) { q.Nodes[ub].Literals[1] = le("y", 1) }), builds, builds},
		{"another focus", base, edit(base, func(q *query.Query) { q.Focus = uc }), builds, builds},
		{"a changed label", base, edit(base, func(q *query.Query) { q.Nodes[uc].Label = "D" }), builds, builds},
		{"a changed focus label", base, edit(base, func(q *query.Query) { q.Nodes[ua].Label = "" }), builds, builds},
		{"a changed bound", base, edit(base, func(q *query.Query) { q.Edges[1].Bound = 2 }), builds, builds},
		{"a reversed edge", base, edit(base, func(q *query.Query) { q.Edges[1].From, q.Edges[1].To = uc, ub }), builds, builds},
		{"an edge removed: the star is cut off the focus", base, cut, builds, builds},
		{"an edge to a new node: the star at A is new, the star at B untouched", base,
			edit(base, func(q *query.Query) { q.AddEdge(ua, q.AddNode("D"), 1) }), reuses, builds},
		{"the same literal twice", base, edit(base, func(q *query.Query) { q.Nodes[ub].Literals = append(q.Nodes[ub].Literals, eq("x", 1)) }), reuses, builds},
		{"the parent has it twice", edit(base, func(q *query.Query) { q.Nodes[ub].Literals = append(q.Nodes[ub].Literals, eq("x", 1)) }), base, reuses, builds},
		{"a focus literal only", base, edit(base, func(q *query.Query) { q.Nodes[ua].Literals = []query.Literal{eq("x", 0)} }), reuses, builds},
		{"twice the same, and one more", base, edit(base, func(q *query.Query) {
			q.Nodes[ub].Literals = append(q.Nodes[ub].Literals, eq("x", 1), eq("y", 2))
		}), derives, builds},
		{"a literal on the cut-off star", cut, edit(cut, func(q *query.Query) { q.Nodes[uc].Literals = []query.Literal{eq("x", 2)} }), derives, reuses},
	} {
		var parent *match.Result
		if tc.parent != nil {
			parent = m.Match(tc.parent)
		}
		sameResult(t, tc.name, m.MatchFrom(parent, tc.q), m.Match(tc.q))
		for _, s := range match.Decompose(tc.q) {
			got := match.DeriveStarTable(g, parent, tc.q, s)
			want := tc.atA
			if s.Center == ub {
				want = tc.atB
			}
			switch {
			case want == builds && got != nil:
				t.Errorf("%s: the star at u%d was taken from the parent", tc.name, s.Center)
			case want == reuses && (got == nil || got != parentStar(parent, s).Table):
				t.Errorf("%s: the star at u%d is not the parent's table itself", tc.name, s.Center)
			case want == derives && (got == nil || got == parentStar(parent, s).Table):
				t.Errorf("%s: the star at u%d was not derived", tc.name, s.Center)
			}
			if got != nil && want == derives {
				if diff := match.TableDiff(got, match.BuildStarTable(g, tc.q, s)); diff != "" {
					t.Errorf("%s: derived table differs from a fresh build: %s", tc.name, diff)
				}
			}
		}
	}
}

// TestFreshBuildAllocsIndependentOfCandidates: a fresh build allocates
// for the rows it keeps, not for the center candidates it visits — the
// same eight rows cost the same among a hundred candidates and among
// sixteen hundred.
func TestFreshBuildAllocsIndependentOfCandidates(t *testing.T) {
	build := func(candidates int) float64 {
		gb := graph.NewBuilder()
		for i := 0; i < candidates; i++ {
			a := gb.AddNode("A", nil)
			if i < 8 {
				gb.AddEdge(a, gb.AddNode("B", nil), "e")
			} else {
				gb.AddEdge(a, gb.AddNode("C", nil), "e") // a ball to scan, no row
			}
		}
		q := query.New()
		q.AddEdge(q.AddNode("A"), q.AddNode("B"), 1)
		s := match.Decompose(q)[0]
		g := mustBuild(gb)
		if rows := match.BuildStarTable(g, q, s).NumRows(); rows != 8 {
			t.Fatalf("%d candidates: %d rows, want 8", candidates, rows)
		}
		// The least of single-build rounds: sync.Pool may hand a build a
		// cold scratch, and under the race detector it drops a quarter of
		// all Puts at random, so an average over builds varies run to run.
		least := math.Inf(1)
		for range 20 {
			least = min(least, testing.AllocsPerRun(1, func() { match.BuildStarTable(g, q, s) }))
		}
		return least
	}
	few, many := build(100), build(1600)
	if many > few+2 {
		t.Errorf("a build allocates %v times among 100 center candidates and %v among 1600", few, many)
	}
}

// TestFocusCandidatesAscending: the focus pool MatchFrom starts from is
// ascending, without repeats, on each of focusCandidates' paths — the
// label's run, the wildcard's run, the parent's list, the parent's list
// filtered — for MatchFrom's cursors into each table's focus list rely on
// it. The walks include one below a wildcard focus.
func TestFocusCandidatesAscending(t *testing.T) {
	paths := map[string]int{}
	sweep := func(what string, w *chase.Why) {
		walkRewrites(w, what, func(what string, parent *match.Result, q *query.Query) *match.Result {
			res := w.Matcher.MatchFrom(parent, q)
			pool := res.Candidates[q.Focus]
			for i := 1; i < len(pool); i++ {
				if pool[i-1] >= pool[i] {
					t.Fatalf("%s: focus pool not ascending at %d: %d then %d", what, i, pool[i-1], pool[i])
				}
			}
			path := "label run"
			switch {
			case parent != nil && len(pool) > 0 && len(parent.Candidates[q.Focus]) > 0 && &pool[0] == &parent.Candidates[q.Focus][0]:
				path = "parent's list"
			case parent != nil && len(q.Nodes[q.Focus].Literals) > len(parent.Query.Nodes[q.Focus].Literals):
				path = "parent's list filtered"
			case q.Nodes[q.Focus].Label == "":
				path = "wildcard run"
			}
			paths[path]++
			return res
		})
	}
	datasetWhys(t, 1, func(what string, w *chase.Why) {
		sweep(what, w)
		wild := w.Q.Clone()
		wild.Nodes[wild.Focus].Label = ""
		ww, err := chase.NewWhy(w.G, wild, w.E, w.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		sweep(what+" wildcard focus", ww)
	})
	for _, p := range []string{"label run", "wildcard run", "parent's list", "parent's list filtered"} {
		if paths[p] < 10 {
			t.Errorf("%d focus pools came by the %s: want at least 10 (%v)", paths[p], p, paths)
		}
	}
}

// TestResultPatIsQueryCompiled: the compiled pattern a result carries is,
// on every rewrite the walks visit, a fresh compile of the result's
// query, and it still is once the walk has generated operators from it
// and evaluated children beside it: it is read, never written. The walks
// run below each question, below it with a wildcard focus, and below it
// with a non-focus node that names a label, or an attribute, G lacks;
// they meet nodes RmE detached.
func TestResultPatIsQueryCompiled(t *testing.T) {
	same := func(what string, g *graph.Graph, res *match.Result) {
		t.Helper()
		var fresh query.Compiled
		fresh.Compile(g, res.Query)
		if !reflect.DeepEqual(res.Pat, fresh) {
			t.Fatalf("%s: the result's Pat %+v, a fresh compile of %s %+v", what, res.Pat, res.Query, fresh)
		}
	}
	var detached, wildcard, absent, results int
	sweep := func(what string, w *chase.Why) {
		var seen []*match.Result
		walkRewrites(w, what, func(what string, parent *match.Result, q *query.Query) *match.Result {
			res := w.Matcher.MatchFrom(parent, q)
			same(what, w.G, res)
			seen = append(seen, res)
			for u := range q.Nodes {
				n := &q.Nodes[u]
				if q.IsolatedIgnored(query.NodeID(u)) {
					detached++
				}
				if _, ok := w.G.Labels.Lookup(n.Label); n.Label != "" && !ok {
					absent++
				}
				for _, l := range n.Literals {
					if _, ok := w.G.Attrs.Lookup(l.Attr); !ok {
						absent++
					}
				}
			}
			if q.Nodes[q.Focus].Label == "" {
				wildcard++
			}
			return res
		})
		for _, res := range seen {
			same(what+", after the walk", w.G, res)
		}
		results += len(seen)
	}
	datasetWhys(t, 1, func(what string, w *chase.Why) {
		sweep(what, w)
		other := (w.Q.Focus + 1) % query.NodeID(len(w.Q.Nodes))
		for _, v := range []struct {
			name string
			edit func(q *query.Query)
		}{
			{"wildcard focus", func(q *query.Query) { q.Nodes[q.Focus].Label = "" }},
			{"absent label", func(q *query.Query) { q.Nodes[other].Label = "no such label" }},
			{"absent attribute", func(q *query.Query) {
				q.Nodes[other].Literals = append(q.Nodes[other].Literals, query.Literal{Attr: "no such attribute", Op: graph.EQ, Val: graph.N(1)})
			}},
		} {
			q := w.Q.Clone()
			v.edit(q)
			wv, err := chase.NewWhy(w.G, q, w.E, w.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			sweep(what+" "+v.name, wv)
		}
	})
	t.Logf("%d results: %d detached nodes, %d wildcard foci, %d absent names", results, detached, wildcard, absent)
	if detached == 0 || wildcard == 0 || absent == 0 {
		t.Errorf("%d detached nodes, %d wildcard foci, %d absent labels or attributes: want each", detached, wildcard, absent)
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
