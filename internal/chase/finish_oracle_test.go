package chase

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// opIdent is the comparable operator identity the generators keyed and
// ordered operators by before opKey and opCompare, kept verbatim as the
// reference both are held to. AddE-with-fresh-node operators are
// identified by their label.
type opIdent struct {
	kind            ops.Kind
	u, u2           query.NodeID
	lit, newLit     query.Literal
	bound, newBound int
	newLabel        string
	hasNew          bool
}

func identOf(o ops.Op) opIdent {
	id := opIdent{
		kind: o.Kind, u: o.U, u2: o.U2,
		lit: o.Lit, newLit: o.NewLit,
		bound: o.Bound, newBound: o.NewBound,
	}
	if o.NewNode != nil {
		id.hasNew = true
		id.newLabel = o.NewNode.Label
	}
	return id
}

// identCompare orders operator identities deterministically.
func identCompare(a, b opIdent) int {
	return cmp.Or(
		cmp.Compare(a.kind, b.kind),
		cmp.Compare(a.u, b.u),
		cmp.Compare(a.u2, b.u2),
		a.lit.Compare(b.lit),
		a.newLit.Compare(b.newLit),
		cmp.Compare(a.bound, b.bound),
		cmp.Compare(a.newBound, b.newBound),
		strings.Compare(a.newLabel, b.newLabel),
	)
}

// oracleFinishScored is finishScored as it stood before it sorted an
// index permutation once: a stable sort of the accumulators by identity,
// then a stable sort of the scored operators by pickiness and cost, then
// the class cap. Verbatim but for the gain sets, which operators no
// longer carry, and that it sorts a copy of the list, leaving acc as it
// found it.
func (w *Why) oracleFinishScored(acc *accums) []scoredOp {
	list := slices.Clone(acc.list)
	out := make([]scoredOp, 0, len(list))
	slices.SortStableFunc(list, func(a, b accum) int { // determinism
		return identCompare(identOf(a.op.Op), identOf(b.op.Op))
	})
	for i := range list {
		a := &list[i]
		a.op.Pick = a.total / float64(len(w.FocusCands))
		a.op.Cost = a.op.Op.Cost(w.G)
		out = append(out, a.op)
	}
	sort.SliceStable(out, func(i, j int) bool {
		switch {
		case out[i].Pick > out[j].Pick:
			return true
		case out[i].Pick < out[j].Pick:
			return false
		}
		return out[i].Cost < out[j].Cost
	})
	return capPerClass(out, w.maxOpsPerClass)
}

// sameScored compares two scored lists field by field: the operator by
// identity, PickyEdge (which tells apart equal identities, and so their
// order), and Pick and Cost by bit pattern (NaN included).
func sameScored(t *testing.T, what string, got, want []scoredOp) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d operators, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		g, o := got[i], want[i]
		if identCompare(identOf(g.Op), identOf(o.Op)) != 0 || g.PickyEdge != o.PickyEdge {
			t.Fatalf("%s: operator %d is %s (edge %d), oracle has %s (edge %d)", what, i, g.Op, g.PickyEdge, o.Op, o.PickyEdge)
		}
		if math.Float64bits(g.Pick) != math.Float64bits(o.Pick) || math.Float64bits(g.Cost) != math.Float64bits(o.Cost) {
			t.Fatalf("%s: %s scored pick %v cost %v, oracle %v / %v", what, g.Op, g.Pick, g.Cost, o.Pick, o.Cost)
		}
	}
}

// TestFinishScoredMatchesTwoStableSorts holds the one sort to the two
// stable sorts on random accumulator lists drawn from a small operator
// pool, so that identities repeat (their order is then generation order)
// and picks and costs tie, under class caps that cut and that do not.
// One list in five has every total NaN, as λ = NaN makes every
// refinement's: both orders are then by cost alone.
func TestFinishScoredMatchesTwoStableSorts(t *testing.T) {
	f := datagen.NewFig1()
	w, err := NewWhy(f.G, f.Q, f.E, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	lits := []query.Literal{
		{Attr: "Price", Op: graph.GE, Val: graph.N(300)},
		{Attr: "Price", Op: graph.LE, Val: graph.N(840)},
		{Attr: "Price", Op: graph.LE, Val: graph.N(math.NaN())},
		{Attr: "Brand", Op: graph.EQ, Val: graph.S("Apple")},
	}
	kinds := []ops.Kind{ops.RmL, ops.RxL, ops.RmE, ops.RxE, ops.AddL, ops.AddE, ops.RfL, ops.RfE}
	randomOp := func() ops.Op {
		o := ops.Op{Kind: kinds[rng.Intn(len(kinds))], U: query.NodeID(rng.Intn(2)), U2: query.NodeID(rng.Intn(2)),
			Lit: lits[rng.Intn(len(lits))], NewLit: lits[rng.Intn(len(lits))],
			Bound: 1 + rng.Intn(2), NewBound: 1 + rng.Intn(3)}
		if o.Kind == ops.AddE && rng.Intn(2) == 0 {
			o.NewNode = &ops.NewNodeSpec{Label: []string{"A", "B"}[rng.Intn(2)]}
		}
		return o
	}
	for trial := 0; trial < 400; trial++ {
		var acc accums
		allNaN := trial%5 == 4
		for i, n := 0, rng.Intn(150); i < n; i++ {
			a := accum{op: scoredOp{Op: randomOp(), PickyEdge: i}, total: float64(rng.Intn(4))}
			if allNaN {
				a.total = math.NaN()
			}
			acc.list = append(acc.list, a)
		}
		w.maxOpsPerClass = []int{1, 3, maxOpsPerClass}[trial%3]
		want := w.oracleFinishScored(&acc)
		sameScored(t, fmt.Sprintf("trial %d (%d accumulators, cap %d)", trial, len(acc.list), w.maxOpsPerClass),
			w.finishScored(&acc), want)
	}
}

// TestFinishScoredMatchesTwoStableSortsOnDatasets holds the one sort to
// the two stable sorts on what the generators accumulate at walked
// states of every dataset kind, capped and not: the scratch still holds
// a call's accumulators when it returns.
func TestFinishScoredMatchesTwoStableSortsOnDatasets(t *testing.T) {
	compared := 0
	datasetWhys(t, 2, func(dataset, what string, w *Why, q *query.Query) {
		walkStates(t, w, what, q, 2, func(s walkedState, res *match.Result) {
			used := s.seq.Targets()
			for _, n := range []int{1 << 20, 2} {
				w.maxOpsPerClass = n
				// A generator that returns nil never reached finishScored.
				if got := w.GenRefine(res, used, w.Cfg.Budget); got != nil {
					sameScored(t, s.what+" GenRefine", got, w.oracleFinishScored(&w.gs.acc))
					compared += len(got)
				}
				if got := w.GenRelax(res, used, w.Cfg.Budget); got != nil {
					sameScored(t, s.what+" GenRelax", got, w.oracleFinishScored(&w.gs.acc))
					compared += len(got)
				}
			}
			w.maxOpsPerClass = 1 << 20
		})
	})
	if compared < 1000 {
		t.Errorf("only %d operators compared", compared)
	}
}
