package chase

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// The per-state bookkeeping walks ascending lists and indexes dense
// ones where it once built sets. The tests here hold each walk to the
// set formulation it replaced.

// mapPartition is Partition as a set formulation.
func mapPartition(w *Why, answer []graph.NodeID) (rm, im, rc, ic []graph.NodeID) {
	in := map[graph.NodeID]bool{}
	for _, v := range answer {
		in[v] = true
	}
	for _, v := range w.FocusCands {
		switch inAns, inRep := in[v], w.Eval.InRep(v); {
		case inAns && inRep:
			rm = append(rm, v)
		case inAns:
			im = append(im, v)
		case inRep:
			rc = append(rc, v)
		default:
			ic = append(ic, v)
		}
	}
	return
}

// mapDiffEntry is diffEntry as it stood while it built two sets.
func mapDiffEntry(w *Why, op ops.Op, pickyEdge int, before, after []graph.NodeID) DiffEntry {
	prev := make(map[graph.NodeID]bool, len(before))
	for _, v := range before {
		prev[v] = true
	}
	next := make(map[graph.NodeID]bool, len(after))
	for _, v := range after {
		next[v] = true
	}
	e := DiffEntry{Op: op, PickyEdge: pickyEdge}
	for _, v := range after {
		if !prev[v] {
			rel := IM
			if w.Eval.InRep(v) {
				rel = RM
			}
			e.Delta = append(e.Delta, DiffNode{V: v, Rel: rel, Added: true})
		}
	}
	for _, v := range before {
		if !next[v] {
			rel := IC
			if w.Eval.InRep(v) {
				rel = RC
			}
			e.Delta = append(e.Delta, DiffNode{V: v, Rel: rel, Added: false})
		}
	}
	return e
}

// TestPartitionAndDiffEntryMatchSetForms compares Partition and diffEntry
// with their set formulations on random ascending node sets — empty,
// equal, disjoint and interleaved pairs, drawn from the focus candidates
// and from nodes outside them — of every seeded dataset question.
func TestPartitionAndDiffEntryMatchSetForms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	datasetWhys(t, 2, func(_, what string, w *Why, q *query.Query) {
		n := w.G.NumNodes()
		// subset draws an ascending set: focus candidates with
		// probability p, other nodes with probability p/8.
		subset := func(p float64) []graph.NodeID {
			var out []graph.NodeID
			for v := graph.NodeID(0); int(v) < n; v++ {
				_, cand := slices.BinarySearch(w.FocusCands, v)
				if r := rng.Float64(); cand && r < p || !cand && r < p/8 {
					out = append(out, v)
				}
			}
			return out
		}
		root := w.Matcher.Match(q).Answer
		for i := 0; i < 6; i++ {
			a, b := subset(rng.Float64()), subset(rng.Float64())
			var evens, odds []graph.NodeID
			for k, v := range a {
				if k%2 == 0 {
					evens = append(evens, v)
				} else {
					odds = append(odds, v)
				}
			}
			for pi, pair := range [][2][]graph.NodeID{
				{nil, nil}, {a, nil}, {nil, a}, {a, a}, {evens, odds}, {odds, evens}, {a, b}, {root, a}, {b, root},
			} {
				before, after := pair[0], pair[1]
				where := fmt.Sprintf("%s round %d pair %d", what, i, pi)
				rm, im, rc, ic := w.Partition(&match.Result{Answer: after})
				wrm, wim, wrc, wic := mapPartition(w, after)
				for k, got := range [][]graph.NodeID{rm, im, rc, ic} {
					if want := [][]graph.NodeID{wrm, wim, wrc, wic}[k]; !slices.Equal(got, want) {
						t.Fatalf("%s: Partition class %s is %v, the set form has %v", where, Relevance(k), got, want)
					}
				}
				op := ops.Op{Kind: ops.RmE, U: 0, U2: 1, Bound: 1}
				got, want := w.diffEntry(op, 2, before, after), mapDiffEntry(w, op, 2, before, after)
				if got.String() != want.String() || !slices.Equal(got.Delta, want.Delta) || got.PickyEdge != want.PickyEdge {
					t.Fatalf("%s: diffEntry is %s, the set form has %s", where, got, want)
				}
			}
		}
	})
}

// TestOpKeyMatchesOpIdent: two operators have equal opKeys exactly when
// their opIdents are equal — a NaN constant making both unequal even to
// themselves — on the operators the generators emit on every walked
// state and on the variants a generator could emit as well: each
// twice, with a zero constant's sign flipped, with every literal of its
// pattern node, AddL with every value of its attribute, AddE with every
// label, and RmL of every literal of the state's query.
func TestOpKeyMatchesOpIdent(t *testing.T) {
	flip := func(v graph.Value) graph.Value {
		v.Num = -v.Num
		return v
	}
	compared, classes := 0, 0
	walkBudgetStates(t, func(w *Why, s walkedState, res *match.Result, used ops.Targets, budgetLeft float64) {
		if !math.IsNaN(budgetLeft) && len(s.seq) > 1 {
			return // every operator is emitted under the NaN budget of the walk's root
		}
		var all []ops.Op
		for u, n := range s.q.Nodes {
			for _, l := range n.Literals {
				o := ops.Op{Kind: ops.RmL, U: query.NodeID(u), Lit: l}
				all = append(all, o, o)
			}
		}
		seenAttr := map[string]bool{}
		for _, o := range append(w.GenRelax(res, used, budgetLeft), w.GenRefine(res, used, budgetLeft)...) {
			op := o.Op
			all = append(all, op, op)
			switch op.Kind {
			case ops.RmL, ops.RxL, ops.RfL:
				for _, l := range s.q.Nodes[op.U].Literals {
					c := op
					c.Lit = l
					all = append(all, c)
				}
				if op.Lit.Val.Kind == graph.Number && op.Lit.Val.Num == 0 {
					c := op
					c.Lit.Val = flip(c.Lit.Val)
					all = append(all, c)
				}
				if op.NewLit.Val.Num == 0 && op.Kind != ops.RmL {
					c := op
					c.NewLit.Val = flip(c.NewLit.Val)
					all = append(all, c)
				}
			case ops.AddL:
				if k := fmt.Sprint(op.U, op.Lit.Attr); !seenAttr[k] {
					seenAttr[k] = true
					for _, v := range w.G.ActiveDomain(op.Lit.Attr).Values {
						c := op
						c.Lit.Val = v
						all = append(all, c)
					}
				}
			case ops.AddE:
				if op.NewNode != nil {
					for lid := 1; lid < w.G.Labels.Len(); lid++ {
						c := op
						c.NewNode = &ops.NewNodeSpec{Label: w.G.Labels.Name(int32(lid))}
						all = append(all, c)
					}
				}
			}
		}
		ref := func(o ops.Op) int32 {
			switch {
			case o.Kind == ops.AddL:
				return oracleValueRef(w.G, o.Lit.Attr, o.Lit.Val)
			case o.Kind == ops.AddE && o.NewNode != nil:
				lid, _ := w.G.Labels.Lookup(o.NewNode.Label)
				return lid
			}
			return -1
		}
		// Number every operator by the first one equal to it under each
		// identity: the two numberings must agree.
		byKey, byIdent := map[opKey]int{}, map[opIdent]int{}
		for i, o := range all {
			k, id := keyOf(s.q, o, ref(o)), identOf(o)
			ki, ok := byKey[k]
			if !ok {
				ki, byKey[k] = i, i
			}
			ii, ok := byIdent[id]
			if !ok {
				ii, byIdent[id] = i, i
			}
			if ki != ii {
				t.Fatalf("%s: %s is keyed as %s and identified as %s", s.what, o, all[ki], all[ii])
			}
			if ki == i {
				classes++
			}
		}
		compared += len(all)
	})
	if compared-classes < 1000 || classes < 1000 {
		t.Errorf("compared %d operators in %d classes: want plenty of classes, and of operators sharing one", compared, classes)
	}
}

// TestApxWhyMMatchesMapUnion compares ApxWhyM, whose cover sets are
// bitsets over the root answer, with oracleApxWhyM, whose cover sets
// were maps, on seeded Why-Many questions — relaxed rewrites of a query,
// so that their answers hold irrelevant matches to cover — of every
// dataset kind: the same greedy picks, hence the same answer, closeness
// bit for bit. ApxWhyM reports improvements exactly when it returns a
// rewrite, the last of them its answer.
func TestApxWhyMMatchesMapUnion(t *testing.T) {
	covered, several := 0, 0
	for _, dataset := range datagen.AllDatasets() {
		g, err := datagen.Generate(dataset, 1500, 31)
		if err != nil {
			t.Fatal(err)
		}
		m := match.NewMatcher(g, distindex.NewBFS(g), nil)
		rng := rand.New(rand.NewSource(37))
		for i := 0; i < 60; i++ {
			inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
				Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 3},
				DisturbOps: 2,
				MaxTuples:  5,
				RelaxOnly:  true,
			}, rng)
			if !ok {
				continue
			}
			cfg := DefaultConfig()
			cfg.Workers = 1
			w, err := NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s question %d", dataset, i)
			got, tr := w.ApxWhyM(), w.Stats.Trajectory
			if improved := got.Query.Key() != inst.Q.Key(); improved != (len(tr) > 0) ||
				improved && tr[len(tr)-1].Closeness != got.Closeness {
				t.Fatalf("%s: answer %s after %d improvements", what, got, len(tr))
			}
			want := oracleApxWhyM(w)
			if got.Query.Key() != want.Query.Key() || fmt.Sprint(got.Ops) != fmt.Sprint(want.Ops) ||
				math.Float64bits(got.Closeness) != math.Float64bits(want.Closeness) ||
				!slices.Equal(got.Matches, want.Matches) || got.Satisfied != want.Satisfied {
				t.Fatalf("%s: ApxWhyM %s, the map-union version %s", what, got, want)
			}
			switch {
			case len(got.Ops) > 1:
				several++
				fallthrough
			case len(got.Ops) == 1:
				covered++
			}
		}
	}
	if covered < 100 || several < 2 {
		t.Errorf("%d questions got a cover, %d of them of several operators: the comparison needs greedy picks", covered, several)
	}
}
