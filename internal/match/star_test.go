package match

import (
	"testing"

	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// chainQuery builds focus → a → b with the given bounds.
func chainQuery(b1, b2 int) *query.Query {
	q := query.New()
	f := q.AddNode("F")
	a := q.AddNode("A")
	b := q.AddNode("B")
	q.AddEdge(f, a, b1)
	q.AddEdge(a, b, b2)
	q.Focus = f
	return q
}

// TestAugmentedDistance: a star centered two pattern hops from the
// focus carries an augmented edge labeled with the pattern distance.
func TestAugmentedDistance(t *testing.T) {
	q := chainQuery(2, 1)
	var bStar *StarQuery
	for _, s := range Decompose(q) {
		if s.Center == 2 { // node "B"
			bStar = s
		}
	}
	if bStar == nil {
		// B may be covered as a leaf of A's star; force a singleton view.
		bStar = makeStar(q, 2, q.FocusDist(nil))
	}
	if bStar.HasFocus {
		t.Fatal("B's star should not contain the focus directly")
	}
	if bStar.AugDist != 3 {
		t.Errorf("augmented distance = %d, want 3 (2+1 bounds)", bStar.AugDist)
	}
}

// TestAugmentedStarConstrains: the augmented star table prunes focus
// candidates with no B-node within the augmented distance.
func TestAugmentedStarConstrains(t *testing.T) {
	gb := graph.NewBuilder()
	f1 := gb.AddNode("F", nil)
	a1 := gb.AddNode("A", nil)
	b1 := gb.AddNode("B", nil)
	gb.AddEdge(f1, a1, "")
	gb.AddEdge(a1, b1, "")
	// A second F with an A but no B in range.
	f2 := gb.AddNode("F", nil)
	a2 := gb.AddNode("A", nil)
	gb.AddEdge(f2, a2, "")

	q := chainQuery(1, 1)
	g := mustBuild(gb)
	m := NewMatcher(g, distindex.NewBFS(g), nil)
	got := m.Match(q).Answer
	if len(got) != 1 || got[0] != f1 {
		t.Errorf("answer = %v, want {%d}", got, f1)
	}

	// The star centered at B (if present) supports only f1.
	res := m.Match(q)
	for _, inst := range res.Stars {
		sup := inst.Table.FocusSupport(g, q)
		if sup == nil {
			continue
		}
		if sup[f2] && inst.Star.Center == 2 {
			t.Error("augmented star should not support the B-less focus")
		}
	}
}

// TestDisconnectedStarSupportsAll: a star in a component detached from
// the focus constrains its own nodes but supports every focus
// candidate.
func TestDisconnectedStarSupportsAll(t *testing.T) {
	q := query.New()
	f := q.AddNode("F")
	a := q.AddNode("A")
	b := q.AddNode("B")
	q.AddEdge(a, b, 1) // component without the focus
	q.Focus = f

	gb := graph.NewBuilder()
	gb.AddNode("F", nil)
	x := gb.AddNode("A", nil)
	y := gb.AddNode("B", nil)
	gb.AddEdge(x, y, "")

	g := mustBuild(gb)
	m := NewMatcher(g, distindex.NewBFS(g), nil)
	res := m.Match(q)
	if len(res.Answer) != 1 {
		t.Errorf("answer = %v, want the single F", res.Answer)
	}
	for _, inst := range res.Stars {
		if !inst.Star.HasFocus && inst.Star.AugDist == 0 {
			if sup := inst.Table.FocusSupport(g, q); sup != nil {
				t.Error("detached star must support all focus candidates")
			}
		}
	}
}

// TestColumnMapOnCachedTable: a cached table built from a query with
// reversed edge declaration order still maps columns correctly.
func TestColumnMapOnCachedTable(t *testing.T) {
	gb := graph.NewBuilder()
	c := gb.AddNode("C", nil)
	a := gb.AddNode("A", nil)
	b := gb.AddNode("B", nil)
	gb.AddEdge(c, a, "")
	gb.AddEdge(b, c, "")

	build := func(order bool) *query.Query {
		q := query.New()
		cc := q.AddNode("C")
		aa := q.AddNode("A")
		bb := q.AddNode("B")
		if order {
			q.AddEdge(cc, aa, 1)
			q.AddEdge(bb, cc, 1)
		} else {
			q.AddEdge(bb, cc, 1)
			q.AddEdge(cc, aa, 1)
		}
		q.Focus = cc
		return q
	}
	cache := NewCache(16, 0.95)
	g := mustBuild(gb)
	m := NewMatcher(g, distindex.NewBFS(g), cache)
	if got := m.Match(build(true)).Answer; len(got) != 1 || got[0] != c {
		t.Fatalf("first order: %v", got)
	}
	// Same structural star, reversed edge order: must hit the cache and
	// still answer correctly through the column map.
	if got := m.Match(build(false)).Answer; len(got) != 1 || got[0] != c {
		t.Fatalf("reversed order: %v", got)
	}
	if cache.Counters().Hits == 0 {
		t.Error("reversed-order query should hit the cache")
	}
	_ = a
	_ = b
}
