package chase

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// oracleGenRelax is GenRelax as it stood before generation became
// budget-aware, verbatim apart from the receiver and its blame, which it
// takes from oracleAnalyzeRC, the by-value analysis: it partitions the
// answer itself and asks nothing about the budget before the per-operator
// "Cost > budgetLeft" test. The terminal-state test checks that on a
// state with budgetLeft < ops.MinCost it finds nothing to emit, and that
// elsewhere GenRelax still emits exactly what it does.
func oracleGenRelax(w *Why, q *query.Query, res *match.Result, used ops.Targets, budgetLeft float64) []scoredOp {
	_, _, rc, _ := w.Partition(res)
	if len(rc) == 0 {
		return nil
	}
	// Blame analysis runs bounded BFS per RC node; cap the analyzed set
	// (highest-closeness first) so generation stays within the bounded
	// delay of §5.4. Pickiness then scores against the sample.
	rc = sampleByCl(w, rc, w.Cfg.MaxAnalysis, new(clSample))

	// acc accumulates RC̄ per candidate operator, keyed by the
	// operator's identity. The gain sets are kept beside it, as node
	// sets, each node told to gainTaken when it joins one.
	acc := map[opIdent]*accum{}
	gain := map[*accum]map[graph.NodeID]bool{}
	add := func(o ops.Op, pickyEdge int, v graph.NodeID) {
		if !o.Applicable(q, w.params) || o.Cost(w.G) > budgetLeft {
			return
		}
		key := identOf(o)
		a := acc[key]
		if a == nil {
			a = &accum{op: scoredOp{Op: o, PickyEdge: pickyEdge}}
			acc[key] = a
			gain[a] = map[graph.NodeID]bool{}
		}
		if !gain[a][v] {
			gain[a][v] = true
			a.total += w.Eval.Cl(v)
			if gainTaken != nil {
				gainTaken(keyOf(q, o, -1), []graph.NodeID{v})
			}
		}
	}

	focus := q.Focus
	// Per-literal failing-value pools for the RxL discretization rule.
	type litKey struct {
		u    query.NodeID
		attr string
	}
	failVals := map[litKey]map[float64][]graph.NodeID{}
	noteVal := func(u query.NodeID, attr string, val graph.Value, v graph.NodeID) {
		if val.Kind != graph.Number {
			return
		}
		k := litKey{u, attr}
		if failVals[k] == nil {
			failVals[k] = map[float64][]graph.NodeID{}
		}
		failVals[k][val.Num] = append(failVals[k][val.Num], v)
	}

	var deepRC []graph.NodeID
	var blame oracleBlame
	for _, v := range rc {
		oracleAnalyzeRC(w, q, v, &blame)

		for _, l := range blame.failedLits {
			if !used.Has(ops.LitTarget(focus, l.Attr)) {
				add(ops.Op{Kind: ops.RmL, U: focus, Lit: l}, -1, v)
				if val, ok := w.G.Attr(v, l.Attr); ok {
					noteVal(focus, l.Attr, val, v)
				}
			}
		}
		// Iterate failed edges in index order: operator insertion order
		// decides identOf-map accumulation and, downstream, tie-broken
		// top-k output.
		failedEdges := make([]int, 0, len(blame.edgeFail))
		for ei, nearest := range blame.edgeFail {
			if nearest != 0 {
				failedEdges = append(failedEdges, ei)
			}
		}
		sort.Ints(failedEdges)
		for _, ei := range failedEdges {
			nearest := blame.edgeFail[ei]
			e := q.Edges[ei]
			if !used.Has(ops.EdgeTarget(e.From, e.To)) {
				add(ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound}, ei, v)
				// Step-wise bound relaxation (Appendix B); the RC node
				// only counts when one step suffices.
				if e.Bound < w.Cfg.MaxBound && nearest <= e.Bound+1 {
					add(ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound + 1}, ei, v)
				}
				// Direct relaxation to the needed bound when farther.
				if nearest != graph.Unreachable && nearest > e.Bound+1 && nearest <= w.Cfg.MaxBound {
					add(ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: nearest}, ei, v)
				}
			}
			for _, bl := range blame.blocking(ei) {
				if used.Has(ops.LitTarget(bl.u, bl.lit.Attr)) {
					continue
				}
				add(ops.Op{Kind: ops.RmL, U: bl.u, Lit: bl.lit}, ei, v)
				noteVal(bl.u, bl.lit.Attr, bl.val, v)
			}
		}
		if blame.deep {
			deepRC = append(deepRC, v)
		}
	}

	// Deep failures blame every non-focus-incident edge (the paper's
	// rule (2): paths {(u,u'),(u',u_o)} — an overestimate).
	for _, v := range deepRC {
		for ei, e := range q.Edges {
			if e.From == focus || e.To == focus {
				continue
			}
			if used.Has(ops.EdgeTarget(e.From, e.To)) {
				continue
			}
			add(ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound}, ei, v)
			if e.Bound < w.Cfg.MaxBound {
				add(ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound + 1}, ei, v)
			}
		}
	}

	// RxL discretization: for each blamed numeric literal (in pattern-node
	// then attribute order, for deterministic generation), sort the
	// failing values and generate one RxL per distinct value — relaxing
	// up to that value admits every RC node at or before it.
	blamedLits := make([]litKey, 0, len(failVals))
	for k := range failVals {
		blamedLits = append(blamedLits, k)
	}
	sort.Slice(blamedLits, func(i, j int) bool {
		if blamedLits[i].u != blamedLits[j].u {
			return blamedLits[i].u < blamedLits[j].u
		}
		return blamedLits[i].attr < blamedLits[j].attr
	})
	for _, k := range blamedLits {
		vals := failVals[k]
		li := -1
		for _, op := range []graph.Op{graph.GE, graph.GT, graph.LE, graph.LT, graph.EQ} {
			if i := q.FindLiteral(k.u, k.attr, op); i >= 0 {
				li = i
				break
			}
		}
		if li < 0 {
			continue
		}
		l := q.Nodes[k.u].Literals[li]
		if l.Val.Kind != graph.Number {
			continue
		}
		nums := make([]float64, 0, len(vals))
		for n := range vals {
			nums = append(nums, n)
		}
		sort.Float64s(nums)
		const maxRxLValues = 8
		switch l.Op {
		case graph.GE, graph.GT, graph.EQ:
			// Failing values lie below c; relax the lower bound downward,
			// nearest first.
			count := 0
			for i := len(nums) - 1; i >= 0 && count < maxRxLValues; i-- {
				a := nums[i]
				if a >= l.Val.Num {
					continue
				}
				o := ops.Op{Kind: ops.RxL, U: k.u, Lit: l,
					NewLit: query.Literal{Attr: k.attr, Op: graph.GE, Val: graph.N(a)}}
				for _, n := range nums[i:] {
					if n >= a && n < l.Val.Num {
						for _, v := range vals[n] {
							add(o, -1, v)
						}
					}
				}
				count++
			}
		}
		switch l.Op {
		case graph.LE, graph.LT, graph.EQ:
			count := 0
			for i := 0; i < len(nums) && count < maxRxLValues; i++ {
				a := nums[i]
				if a <= l.Val.Num {
					continue
				}
				o := ops.Op{Kind: ops.RxL, U: k.u, Lit: l,
					NewLit: query.Literal{Attr: k.attr, Op: graph.LE, Val: graph.N(a)}}
				for _, n := range nums[:i+1] {
					if n <= a && n > l.Val.Num {
						for _, v := range vals[n] {
							add(o, -1, v)
						}
					}
				}
				count++
			}
		}
	}

	var scored accums
	for a := range gain {
		scored.list = append(scored.list, *a)
	}
	return w.finishScored(&scored)
}

// oracleBlame is rcBlame as it stood when blame read the pattern by
// value, verbatim apart from its name.
type oracleBlame struct {
	v graph.NodeID
	// failedLits are the focus literals v itself violates.
	failedLits []query.Literal
	// edgeFail records, per pattern edge index, how far the nearest
	// candidate partner is when the edge fails v (graph.Unreachable when
	// none within b_m), and 0 when it does not: it holds, or is not
	// focus-incident.
	edgeFail []int
	// blocked records partner-side literal blocking: for a failing
	// pattern edge whose bound is satisfiable by a correctly-labeled
	// neighbor that fails literals of the other endpoint, the blocking
	// literals with the nearest unblocking value. The failing edges' runs
	// lie one after another; litBlock[ei] locates edge ei's (see blocking).
	blocked  []blockedLit
	litBlock [][2]int32
	// deep is set when no local failure explains the miss (the node
	// fails a non-focus-local constraint or injectivity).
	deep bool
}

// blocking returns the literals blocking pattern edge ei.
func (b *oracleBlame) blocking(ei int) []blockedLit {
	span := b.litBlock[ei]
	return b.blocked[span[0]:span[1]]
}

// oracleAnalyzeRC is analyzeRC as it stood when blame tested nodes by
// value — Query.IsCandidate, Literal.Sat, label strings and Graph.Attr
// by name — verbatim apart from the receiver, so that oracleGenRelax
// sees any change in what blame finds.
func oracleAnalyzeRC(w *Why, q *query.Query, v graph.NodeID, b *oracleBlame) {
	b.v, b.failedLits, b.blocked, b.deep = v, b.failedLits[:0], b.blocked[:0], false
	b.edgeFail = append(b.edgeFail[:0], make([]int, len(q.Edges))...)
	b.litBlock = append(b.litBlock[:0], make([][2]int32, len(q.Edges))...)
	failed := false
	focus := q.Focus

	for _, l := range q.Nodes[focus].Literals {
		if !l.Sat(w.G, v) {
			b.failedLits = append(b.failedLits, l)
		}
	}

	// The two balls are scanned and dropped: a traverser's storage serves
	// them (each direction keeps its own until it is asked again).
	tr := w.G.Traverser()
	defer tr.Release()
	var fwd, bwd []graph.NodeDist
	ballFor := func(dir graph.Direction) []graph.NodeDist {
		if dir == graph.Forward {
			if fwd == nil {
				fwd = tr.Ball(v, w.Cfg.MaxBound, graph.Forward)
			}
			return fwd
		}
		if bwd == nil {
			bwd = tr.Ball(v, w.Cfg.MaxBound, graph.Backward)
		}
		return bwd
	}

	for ei, e := range q.Edges {
		var other query.NodeID
		var dir graph.Direction
		switch focus {
		case e.From:
			other, dir = e.To, graph.Forward
		case e.To:
			other, dir = e.From, graph.Backward
		default:
			continue
		}
		nearestCand := graph.Unreachable
		lo := len(b.blocked)
		otherLabel := q.Nodes[other].Label
		for _, nd := range ballFor(dir) {
			if nd.D == 0 {
				continue
			}
			nb, d := nd.V, int(nd.D)
			if q.IsCandidate(w.G, other, nb) {
				if d < nearestCand {
					nearestCand = d
				}
				continue
			}
			// A correctly-labeled neighbor within the current bound that
			// fails literals of the other endpoint blames those literals.
			if d <= e.Bound && (otherLabel == "" || w.G.Label(nb) == otherLabel) {
				for _, l := range q.Nodes[other].Literals {
					if !l.Sat(w.G, nb) {
						bl := blockedLit{u: other, lit: l}
						if val, ok := w.G.Attr(nb, l.Attr); ok {
							bl.val = val
						}
						b.blocked = append(b.blocked, bl)
					}
				}
			}
		}
		if nearestCand > e.Bound {
			b.edgeFail[ei] = nearestCand
			b.litBlock[ei] = [2]int32{int32(lo), int32(len(b.blocked))}
			failed = true
		} else {
			b.blocked = b.blocked[:lo]
		}
	}

	if len(b.failedLits) == 0 && !failed {
		b.deep = true
	}
}

// TestGenRelaxFailingValuesMatchOracle holds the RxL discretization's
// sorted failing values to the map of numbers the oracle keeps them in,
// where the partners that block a literal carry 0 and -0 (one domain
// value, stored as 0) and plain numbers. Closeness
// varies (θ = 0.5 over two exemplar cells), so a capped sample is not in
// node order and gain sets must be sorted.
func TestGenRelaxFailingValuesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gb := graph.NewBuilder()
	const nF, nP = 120, 200
	for i := 0; i < nF; i++ {
		gb.AddNode("F", map[string]graph.Value{"good": graph.N(float64(i % 2)), "tier": graph.N(float64(i % 5))})
	}
	vals := []float64{0, math.Copysign(0, -1), 1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	for i := 0; i < nP; i++ {
		gb.AddNode("P", map[string]graph.Value{"a": graph.N(vals[rng.Intn(len(vals))])})
	}
	for i := 0; i < nF; i++ {
		for _, p := range rng.Perm(nP)[:1+rng.Intn(4)] {
			gb.AddEdge(graph.NodeID(i), graph.NodeID(nF+p), "has")
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"good": exemplar.C(graph.N(1)), "tier": exemplar.C(graph.N(0))}}}
	zeros := 0
	for _, lit := range []query.Literal{
		{Attr: "a", Op: graph.GE, Val: graph.N(3)},
		{Attr: "a", Op: graph.GT, Val: graph.N(1)},
		{Attr: "a", Op: graph.LE, Val: graph.N(-1)},
		{Attr: "a", Op: graph.LT, Val: graph.N(-1)}, // every value fails it
		{Attr: "a", Op: graph.EQ, Val: graph.N(4)},
	} {
		for _, analysis := range []int{7, 20, 1000} {
			q := query.New()
			f := q.AddNode("F")
			q.AddEdge(f, q.AddNode("P", lit), 1)
			q.Focus = f
			cfg := DefaultConfig()
			cfg.MaxAnalysis = analysis
			cfg.Theta = 0.5
			w, err := NewWhy(g, q, e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.maxOpsPerClass = 1 << 20
			res := w.Matcher.Match(q)
			what := fmt.Sprintf("%s, %d analyzed", lit.String(), analysis)
			got := withGains(w, q, func() []scoredOp { return w.GenRelax(res, nil, 3) })
			sameOps(t, what, got, withGains(w, q, func() []scoredOp { return oracleGenRelax(w, q, res, nil, 3) }))
			for _, o := range got.ops {
				if o.Op.Kind == ops.RxL && o.Op.NewLit.Val.Num == 0 {
					zeros++
				}
			}
		}
	}
	if zeros == 0 {
		t.Error("no RxL relaxed to a zero: the zeros checked nothing")
	}
}
