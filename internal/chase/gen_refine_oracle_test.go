package chase

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wqe/internal/datagen"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// This file keeps the AddL, RfL and RfE generators as they stood before
// the survivor index and the BFS visitor, verbatim apart from
// receivers: partner sets cut from a materialized Ball, one
// attr=val#kind string per partner cell, one Literal.Sat rescan of
// every sampled match's partners per candidate, certainlyCut over a
// whole Ball. GenRefine must produce the same operators with the same
// scores in the same order.

// oraclePartners is refineGen.partners over graph.Ball.
type oraclePartners struct {
	pm   *refineGen
	memo map[string][]graph.NodeID
}

func (op *oraclePartners) partners(v graph.NodeID, u query.NodeID) []graph.NodeID {
	pm := op.pm
	if u == pm.q.Focus {
		return []graph.NodeID{v}
	}
	key := fmt.Sprintf("%d/%d", v, u)
	if p, ok := op.memo[key]; ok {
		return p
	}
	var out []graph.NodeID
	for _, nd := range pm.w.G.Ball(v, pm.pd[u], graph.Both) {
		if nd.D == 0 {
			continue
		}
		if pm.q.IsCandidate(pm.w.G, u, nd.V) {
			out = append(out, nd.V)
			if len(out) >= maxPartnersScored {
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	op.memo[key] = out
	return out
}

// oracleGen is a refineGen generating the old way.
type oracleGen struct {
	*refineGen
	pm *oraclePartners
}

func newOracleGen(g *refineGen) *oracleGen {
	return &oracleGen{g, &oraclePartners{pm: g, memo: map[string][]graph.NodeID{}}}
}

func (o *oracleGen) removedBy(u query.NodeID, pred func(graph.NodeID) bool) (imOut, rmOut []graph.NodeID) {
	survives := func(v graph.NodeID, u query.NodeID, pred func(graph.NodeID) bool) bool {
		for _, p := range o.pm.partners(v, u) {
			if pred(p) {
				return true
			}
		}
		return false
	}
	for _, v := range o.im {
		if !survives(v, u, pred) {
			imOut = append(imOut, v)
		}
	}
	for _, v := range o.rm {
		if !survives(v, u, pred) {
			rmOut = append(rmOut, v)
		}
	}
	return
}

// addL is the former genAddL.
func (o *oracleGen) addL() {
	w, q, rm, used, add, pm, removedBy := o.w, o.q, o.rm, o.used, o.add, o.pm, o.removedBy

	const maxValuesPerAttr = 6
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		// Count attribute values over RM partners at u.
		type av struct {
			attr string
			val  graph.Value
		}
		counts := map[string]int{}
		reprs := map[string]av{}
		for _, vrm := range rm {
			for _, p := range pm.partners(vrm, u) {
				for _, t := range w.G.Tuple(p) {
					attr := w.G.Attrs.Name(t.Attr)
					if q.FindLiteral(u, attr, graph.EQ) >= 0 {
						continue
					}
					if used.Has(ops.LitTarget(u, attr)) {
						continue
					}
					val, kind := w.G.Value(t), "#s"
					if val.Kind == graph.Number {
						kind = "#n"
					}
					key := attr + "=" + val.String() + kind
					counts[key]++
					reprs[key] = av{attr: attr, val: val}
				}
			}
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if counts[keys[i]] != counts[keys[j]] {
				return counts[keys[i]] > counts[keys[j]]
			}
			return keys[i] < keys[j]
		})
		perAttr := map[string]int{}
		for _, k := range keys {
			x := reprs[k]
			if perAttr[x.attr] >= maxValuesPerAttr {
				continue
			}
			perAttr[x.attr]++
			lit := query.Literal{Attr: x.attr, Op: graph.EQ, Val: x.val}
			imOut, rmOut := removedBy(u, func(p graph.NodeID) bool { return lit.Sat(w.G, p) })
			add(ops.Op{Kind: ops.AddL, U: u, Lit: lit}, oracleValueRef(w.G, x.attr, x.val), -1, imOut, rmOut)
		}
	}
}

// oracleValueRef is the code of val in attr's domain: what AddL keys its
// operators by.
func oracleValueRef(g *graph.Graph, attr string, val graph.Value) int32 {
	aid, _ := g.Attrs.Lookup(attr)
	base, _ := g.Codes().NumberCodes(aid)
	return base + int32(slices.Index(g.Codes().Domain(aid).Values, val))
}

// rfL is the former genRfL.
func (o *oracleGen) rfL() {
	w, q, rm, used, add, pm, removedBy := o.w, o.q, o.rm, o.used, o.add, o.pm, o.removedBy

	const maxValues = 6
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		for _, l := range q.Nodes[u].Literals {
			if l.Val.Kind != graph.Number || used.Has(ops.LitTarget(u, l.Attr)) {
				continue
			}
			// RM-supporting values of this attribute at u.
			var vals []float64
			seen := map[float64]bool{}
			for _, vrm := range rm {
				for _, p := range pm.partners(vrm, u) {
					if val, ok := w.G.Attr(p, l.Attr); ok && val.Kind == graph.Number {
						if !seen[val.Num] {
							seen[val.Num] = true
							vals = append(vals, val.Num)
						}
					}
				}
			}
			sort.Float64s(vals)
			gen := func(newLit query.Literal) {
				imOut, rmOut := removedBy(u, func(p graph.NodeID) bool { return newLit.Sat(w.G, p) })
				add(ops.Op{Kind: ops.RfL, U: u, Lit: l, NewLit: newLit}, -1, -1, imOut, rmOut)
			}
			switch l.Op {
			case graph.LE, graph.LT:
				count := 0
				for i := len(vals) - 1; i >= 0 && count < maxValues; i-- {
					if a := vals[i]; a < l.Val.Num {
						gen(query.Literal{Attr: l.Attr, Op: graph.LE, Val: graph.N(a)})
						count++
					}
				}
			case graph.GE, graph.GT:
				count := 0
				for i := 0; i < len(vals) && count < maxValues; i++ {
					if a := vals[i]; a > l.Val.Num {
						gen(query.Literal{Attr: l.Attr, Op: graph.GE, Val: graph.N(a)})
						count++
					}
				}
			}
		}
	}
}

// rfE is the former genRfE.
func (o *oracleGen) rfE() {
	w, q, rm, im, used, add := o.w, o.q, o.rm, o.im, o.used, o.add

	for ei, e := range q.Edges {
		if e.Bound <= 1 || used.Has(ops.EdgeTarget(e.From, e.To)) {
			continue
		}
		o := ops.Op{Kind: ops.RfE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound - 1}
		var other query.NodeID
		var out bool
		switch q.Focus {
		case e.From:
			other, out = e.To, true
		case e.To:
			other, out = e.From, false
		default:
			add(o, -1, ei, im, nil)
			continue
		}
		certainlyCut := func(v graph.NodeID) bool {
			dir := graph.Forward
			if !out {
				dir = graph.Backward
			}
			for _, nd := range w.G.Ball(v, e.Bound-1, dir) {
				if nd.D > 0 && q.IsCandidate(w.G, other, nd.V) {
					return false
				}
			}
			return true
		}
		var imOut, rmOut []graph.NodeID
		for _, v := range im {
			if certainlyCut(v) {
				imOut = append(imOut, v)
			}
		}
		for _, v := range rm {
			if certainlyCut(v) {
				rmOut = append(rmOut, v)
			}
		}
		add(o, -1, ei, imOut, rmOut)
	}
}

// oracleGenRefine is GenRefine with the three rewritten generators
// replaced by their former selves.
func oracleGenRefine(w *Why, q *query.Query, res *match.Result, used ops.Targets, budgetLeft float64) []scoredOp {
	rm, im, _, _ := w.Partition(res)
	if len(im) == 0 {
		return nil
	}
	g := newRefineGen(w.scratch(), w, res, rm, im, used, budgetLeft)
	o := newOracleGen(g)
	o.addL()
	o.rfL()
	o.rfE()
	g.addE()
	return w.finishScored(g.acc)
}

// genOut is a generator call's operators beside their gain sets,
// sorted: what gainTaken was told about each.
type genOut struct {
	ops   []scoredOp
	gains [][]graph.NodeID
}

// withGains runs one generator call with gainTaken collecting, and
// returns its operators with their gain sets. q is the query the call
// generates on, which keys its operators.
func withGains(w *Why, q *query.Query, gen func() []scoredOp) genOut {
	sets := map[opKey][]graph.NodeID{}
	gainTaken = func(k opKey, gain []graph.NodeID) { sets[k] = append(sets[k], gain...) }
	defer func() { gainTaken = nil }()
	out := genOut{ops: gen()}
	for _, o := range out.ops {
		out.gains = append(out.gains, sortedNodes(sets[keyOf(q, o.Op, opRef(w.G, o.Op))]))
	}
	return out
}

// opRef is the ref keyOf takes for o: an AddL's value code, an AddE's
// fresh label id, -1 for the others.
func opRef(g *graph.Graph, o ops.Op) int32 {
	switch {
	case o.Kind == ops.AddL:
		return oracleValueRef(g, o.Lit.Attr, o.Lit.Val)
	case o.Kind == ops.AddE && o.NewNode != nil:
		id, _ := g.Labels.Lookup(o.NewNode.Label)
		return id
	}
	return -1
}

// sameOps compares two scored lists field by field, and their gain sets.
// Values compare by bit pattern: AddL(a = -0) and AddL(a = 0) are equal
// as map keys, and which of the two a state proposes is part of the
// contract.
func sameOps(t *testing.T, what string, gotOut, wantOut genOut) {
	t.Helper()
	got, want := gotOut.ops, wantOut.ops
	if len(got) != len(want) {
		t.Fatalf("%s: %d operators, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		g, o := got[i], want[i]
		if identOf(g.Op) != identOf(o.Op) ||
			math.Float64bits(g.Op.Lit.Val.Num) != math.Float64bits(o.Op.Lit.Val.Num) ||
			math.Float64bits(g.Op.NewLit.Val.Num) != math.Float64bits(o.Op.NewLit.Val.Num) {
			t.Fatalf("%s: operator %d is %s (%#v), oracle has %s (%#v)", what, i, g.Op, g.Op.Lit.Val, o.Op, o.Op.Lit.Val)
		}
		if g.Pick != o.Pick || g.Cost != o.Cost || g.PickyEdge != o.PickyEdge {
			t.Fatalf("%s: %s scored pick %v cost %v edge %d, oracle %v / %v / %d",
				what, g.Op, g.Pick, g.Cost, g.PickyEdge, o.Pick, o.Cost, o.PickyEdge)
		}
		if !slices.Equal(gotOut.gains[i], wantOut.gains[i]) {
			t.Fatalf("%s: %s gains %v, oracle %v", what, g.Op, gotOut.gains[i], wantOut.gains[i])
		}
	}
}

// checkState compares GenRefine with the oracle on one chase state and
// returns how many operators of each refinement class the state yielded.
func checkState(t *testing.T, what string, w *Why, q *query.Query, used ops.Targets) map[ops.Kind]int {
	t.Helper()
	res := w.Matcher.Match(q)
	want := withGains(w, q, func() []scoredOp { return oracleGenRefine(w, q, res, used, 3) })
	sameOps(t, what, withGains(w, q, func() []scoredOp { return w.GenRefine(res, used, 3) }), want)

	// Partner sets hold the level-order prefixes of the ball either way,
	// in no set order.
	rm, im, _, _ := w.Partition(res)
	pm := newRefineGen(w.scratch(), w, res, rm, im, used, 3)
	byBall := &oraclePartners{pm: pm, memo: map[string][]graph.NodeID{}}
	for _, v := range append(rm, im...) {
		for u := range q.Nodes {
			if got, want := sortedNodes(pm.partners(v, query.NodeID(u))), byBall.partners(v, query.NodeID(u)); !slices.Equal(got, want) {
				t.Fatalf("%s: partners(%d, u%d) = %v, over Ball %v", what, v, u, got, want)
			}
		}
	}
	n := map[ops.Kind]int{}
	for _, o := range want.ops {
		n[o.Op.Kind]++
	}
	return n
}

// sortedNodes returns a sorted copy of a node set.
func sortedNodes(set []graph.NodeID) []graph.NodeID {
	set = slices.Clone(set)
	slices.Sort(set)
	return set
}

// TestGenRefineMatchesOracleOnDatasets walks a few chase states — the
// question's query, then the rewrites its best operators lead to, with
// their targets marked used — on instances of every dataset kind.
func TestGenRefineMatchesOracleOnDatasets(t *testing.T) {
	total := map[ops.Kind]int{}
	addLs := map[string]int{}
	datasetWhys(t, 4, func(dataset, what string, w *Why, q *query.Query) {
		walkStates(t, w, what, q, 2, func(s walkedState, _ *match.Result) {
			for kind, n := range checkState(t, s.what, w, s.q, s.seq.Targets()) {
				total[kind] += n
				if kind == ops.AddL {
					addLs[dataset] += n
				}
			}
		})
	})
	for _, dataset := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies, datagen.DatasetOffshore, datagen.DatasetProducts} {
		if addLs[dataset] == 0 {
			t.Errorf("%s: no AddL operator compared — the sweep checks nothing", dataset)
		}
	}
	for _, kind := range []ops.Kind{ops.RfL, ops.RfE, ops.AddE} {
		if total[kind] == 0 {
			t.Errorf("no %v operator compared on any dataset", kind)
		}
	}
}

// edgeCase is one hand-built chase state over edgeCaseGraph.
type edgeCase struct {
	name     string
	q        *query.Query
	used     ops.Targets
	analysis int
	wantOps  bool
}

// edgeCases builds the inputs the dataset sweeps do not reach: -0 beside
// 0, String "5" beside Number 5, values holding the "=" a rendered key
// joins name and value by, a Number cell carrying a Str beside the plain
// Number, hubs whose partner sets truncate at maxPartnersScored, more
// than 64 sampled matches on both sides, an empty RM, a used target and
// an existing "=" literal.
func edgeCases() (*graph.Graph, *exemplar.Exemplar, []edgeCase) {
	rng := rand.New(rand.NewSource(5))
	gb := graph.NewBuilder()
	const nF, nP = 300, 500
	for i := 0; i < nF; i++ {
		gb.AddNode("F", map[string]graph.Value{"good": graph.N(float64(i % 2)), "size": graph.N(float64(i % 5))})
	}
	aVals := []graph.Value{graph.N(0), graph.N(math.Copysign(0, -1)), graph.N(5), graph.S("5"), graph.S("x")}
	cVals := []graph.Value{graph.N(1), graph.N(2), graph.N(3), graph.S("NaN"), graph.N(0)}
	dVals := []graph.Value{graph.N(5), {Kind: graph.Number, Num: 5, Str: "five"}, graph.N(6), {Kind: graph.Number, Num: 5, Str: "V"}, graph.N(4)}
	for i := 0; i < nP; i++ {
		attrs := map[string]graph.Value{
			"a": aVals[rng.Intn(len(aVals))],
			"b": graph.N(float64(1 + rng.Intn(9))), // more values than maxValuesPerAttr
			"c": cVals[i%len(cVals)],
			"d": dVals[(i/2)%len(dVals)],
		}
		switch rng.Intn(3) { // "kv"="=w" and "k"="v=w" render kv==w#s and k=v=w#s
		case 0:
			attrs["kv"] = graph.S("=w")
		case 1:
			attrs["k"] = graph.S("v=w")
		}
		gb.AddNode("P", attrs)
	}
	for i := 0; i < nF; i++ {
		fan := 1 + rng.Intn(4)
		if i < 4 {
			fan = 130 + 10*i // hubs, relevant and irrelevant: partner sets truncate
		}
		for _, p := range rng.Perm(nP)[:fan] {
			gb.AddEdge(graph.NodeID(i), graph.NodeID(nF+p), "has")
		}
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"good": exemplar.C(graph.N(1))}}}

	base := func(focusLits, partnerLits []query.Literal) *query.Query {
		q := query.New()
		f := q.AddNode("F", focusLits...)
		p := q.AddNode("P", partnerLits...)
		q.AddEdge(f, p, 1)
		q.Focus = f
		return q
	}
	eq := func(attr string, v graph.Value) query.Literal {
		return query.Literal{Attr: attr, Op: graph.EQ, Val: v}
	}
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	return g, e, []edgeCase{
		{"plain", base(nil, nil), nil, 0, true},
		{"all sampled matches kept (150 per side)", base(nil, nil), nil, 1000, true},
		{"used target", base(nil, nil), ops.Targets{ops.LitTarget(1, "a"), ops.LitTarget(0, "size")}, 0, true},
		{"existing = literal", base(nil, []query.Literal{eq("b", graph.N(3))}), nil, 0, true},
		{"existing >= literal", base(nil, []query.Literal{{Attr: "b", Op: graph.GE, Val: graph.N(2)}}), nil, 0, true},
		{"partner constrained to -0", base(nil, []query.Literal{eq("a", graph.N(math.Copysign(0, -1)))}), nil, 0, true},
		{"partner bounded on the attribute of both kinds", base(nil, []query.Literal{{Attr: "c", Op: graph.GE, Val: graph.N(1)}}), nil, 0, true},
		{"partner bounded on the Number-with-Str attribute", base(nil, []query.Literal{{Attr: "d", Op: graph.LE, Val: graph.N(6)}}), nil, 0, true},
		{"empty RM", base([]query.Literal{eq("good", graph.N(0))}, nil), nil, 0, false},
	}
}

// why compiles the case's question with nothing capped, so that
// everything scored is compared.
func (tc edgeCase) why(t *testing.T, g *graph.Graph, e *exemplar.Exemplar) *Why {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxAnalysis = tc.analysis
	w, err := NewWhy(g, tc.q, e, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	w.maxOpsPerClass = 1 << 20
	return w
}

// TestGenRefineMatchesOracleOnEdgeCases compares GenRefine with the
// oracle on the hand-built states of edgeCases.
func TestGenRefineMatchesOracleOnEdgeCases(t *testing.T) {
	g, e, cases := edgeCases()
	for _, tc := range cases {
		w := tc.why(t, g, e)
		if n := checkState(t, tc.name, w, tc.q, tc.used)[ops.AddL]; (n > 0) != tc.wantOps {
			t.Errorf("%s: %d AddL operators compared, want some: %v", tc.name, n, tc.wantOps)
		}
	}

	// The inputs above must actually contain what they claim to.
	w, err := NewWhy(g, cases[0].q, e, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := w.Matcher.Match(cases[0].q)
	rm, im, _, _ := w.Partition(res)
	if n := len(newRefineGen(w.scratch(), w, res, rm, im, nil, 3).partners(0, 1)); n != maxPartnersScored {
		t.Errorf("hub 0 keeps %d partners, want the cap %d", n, maxPartnersScored)
	}
	if len(rm) <= 64 || len(im) <= 64 {
		t.Errorf("|RM| = %d, |IM| = %d: both must exceed 64", len(rm), len(im))
	}
}

// TestGenRefineIgnoresPartnerOrder: partner sets are stored in the order
// their candidates were met, so no reader may depend on it. At every
// walked state of every dataset kind, GenRefine emits the same
// operators, scores, order and gain sets after every cached partner set
// is reversed as before.
func TestGenRefineIgnoresPartnerOrder(t *testing.T) {
	reversed, compared := map[string]int{}, map[string]int{}
	datasetWhys(t, 2, func(dataset, what string, w *Why, q *query.Query) {
		walkStates(t, w, what, q, 2, func(s walkedState, res *match.Result) {
			used := s.seq.Targets()
			gen := func() []scoredOp { return w.GenRefine(res, used, 3) }
			want := withGains(w, s.q, gen) // fills the state's partner sets
			for _, set := range w.partnerCache {
				if len(set) > 1 {
					slices.Reverse(set)
					reversed[dataset]++
				}
			}
			sameOps(t, s.what+" reversed partner sets", withGains(w, s.q, gen), want)
			for _, o := range want.ops {
				if o.Op.Kind == ops.AddL || o.Op.Kind == ops.RfL {
					compared[dataset]++
				}
			}
		})
	})
	for _, dataset := range []string{datagen.DatasetKnowledge, datagen.DatasetMovies, datagen.DatasetOffshore, datagen.DatasetProducts} {
		if reversed[dataset] == 0 || compared[dataset] == 0 {
			t.Errorf("%s: %d partner sets reversed, %d AddL and RfL operators compared: the test checks nothing",
				dataset, reversed[dataset], compared[dataset])
		}
	}
}

// TestNoPartnerSetsWithoutRelevantMatch: only AddL and RfL read partner
// sets, and with no relevant match they propose nothing, so a state
// whose matches are all irrelevant builds none. It still gets the
// oracle's operators, among them an RfE with certain removals.
func TestNoPartnerSetsWithoutRelevantMatch(t *testing.T) {
	// Even Fs of the first nF reach a P in one hop, odd ones in two,
	// through an M.
	gb := graph.NewBuilder()
	const nF = 40
	for i := 0; i < nF; i++ {
		gb.AddNode("F", map[string]graph.Value{"good": graph.N(0)})
	}
	for i := 0; i < nF; i++ {
		gb.AddNode("P", map[string]graph.Value{"b": graph.N(float64(i % 7))})
		gb.AddNode("M", nil)
	}
	for i := 0; i < 3; i++ { // what the exemplar asks for, which the query excludes
		gb.AddNode("F", map[string]graph.Value{"good": graph.N(1)})
	}
	for i := 0; i < nF; i++ {
		p, m := graph.NodeID(nF+2*i), graph.NodeID(nF+2*i+1)
		if i%2 == 0 {
			gb.AddEdge(graph.NodeID(i), p, "has")
		} else {
			gb.AddEdge(graph.NodeID(i), m, "via")
			gb.AddEdge(m, p, "has")
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"good": exemplar.C(graph.N(1))}}}
	q := query.New()
	f := q.AddNode("F", query.Literal{Attr: "good", Op: graph.EQ, Val: graph.N(0)})
	q.AddEdge(f, q.AddNode("P", query.Literal{Attr: "b", Op: graph.LE, Val: graph.N(5)}), 2)
	q.Focus = f
	w, err := NewWhy(g, q, e, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := w.Matcher.Match(q)
	if rm, im, _, _ := w.Partition(res); len(rm) != 0 || len(im) == 0 {
		t.Fatalf("|RM| = %d, |IM| = %d: want only irrelevant matches", len(rm), len(im))
	}
	want := withGains(w, q, func() []scoredOp { return oracleGenRefine(w, q, res, nil, 3) })
	got := withGains(w, q, func() []scoredOp { return w.GenRefine(res, nil, 3) })
	sameOps(t, "no relevant match", got, want)
	if n := len(w.partnerCache); n != 0 {
		t.Errorf("GenRefine built %d partner sets without a relevant match", n)
	}
	if !slices.ContainsFunc(got.ops, func(o scoredOp) bool { return o.Op.Kind == ops.RfE }) {
		t.Errorf("no RfE emitted: %v", got.ops)
	}
}

// TestPartnerSetsDistinguishLiteralKind asks one Why for the partners of
// one match under a = 5 (number) and under a = "5" (string): both
// literals render "a = 5", and the sets memoized on the Why must not be
// shared between them.
func TestPartnerSetsDistinguishLiteralKind(t *testing.T) {
	g, e, cases := edgeCases()
	w, err := NewWhy(g, cases[0].q, e, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const hub, p = graph.NodeID(0), query.NodeID(1)
	var sets [2][]graph.NodeID
	for i, val := range []graph.Value{graph.N(5), graph.S("5")} {
		q := cases[0].q.Clone()
		lit := query.Literal{Attr: "a", Op: graph.EQ, Val: val}
		q.Nodes[p].Literals = append(q.Nodes[p].Literals, lit)
		sets[i] = newRefineGen(w.scratch(), w, w.Matcher.Match(q), nil, nil, nil, 3).partners(hub, p)
		if len(sets[i]) == 0 {
			t.Fatalf("%v: hub %d has no partner", lit, hub)
		}
		for _, n := range sets[i] {
			if !lit.Sat(g, n) {
				t.Errorf("%v: partner %d does not satisfy the literal", lit, n)
			}
		}
	}
	if slices.Equal(sortedNodes(sets[0]), sortedNodes(sets[1])) {
		t.Errorf("number and string literal share the partner set %v", sets[0])
	}
}

// TestGenRefineMatchesOracleOnFillShapes drives the batched partner fill
// through the shapes the suites above leave out: every sampled match a
// hub, so every source of every sweep retires (at level 1 for the
// neighbouring pattern node, at level 2 for the one behind it) and all
// sets come from the single-source visit; and a fill with exactly one
// set missing, a sweep of one source.
func TestGenRefineMatchesOracleOnFillShapes(t *testing.T) {
	const nF, nP, nR = 70, 400, 300 // more matches than one sweep carries
	// build wires every F to between fan and fan+spread Ps, every P to two Rs.
	build := func(fan, spread int) *graph.Graph {
		rng := rand.New(rand.NewSource(11))
		gb := graph.NewBuilder()
		for i := 0; i < nF; i++ {
			gb.AddNode("F", map[string]graph.Value{"good": graph.N(float64(i % 2))})
		}
		for i := 0; i < nP; i++ {
			gb.AddNode("P", map[string]graph.Value{"b": graph.N(float64(1 + rng.Intn(5)))})
		}
		for i := 0; i < nR; i++ {
			gb.AddNode("R", map[string]graph.Value{"c": graph.N(float64(rng.Intn(4)))})
		}
		for i := 0; i < nF; i++ {
			for _, p := range rng.Perm(nP)[:fan+rng.Intn(spread)] {
				gb.AddEdge(graph.NodeID(i), graph.NodeID(nF+p), "has")
			}
		}
		for p := 0; p < nP; p++ {
			for _, r := range rng.Perm(nR)[:2] {
				gb.AddEdge(graph.NodeID(nF+p), graph.NodeID(nF+nP+r), "of")
			}
		}
		g, err := gb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"good": exemplar.C(graph.N(1))}}}
	q := query.New()
	f, p, r := q.AddNode("F"), q.AddNode("P"), q.AddNode("R")
	q.AddEdge(f, p, 1)
	q.AddEdge(p, r, 1)
	q.Focus = f
	cfg := DefaultConfig()
	cfg.MaxAnalysis = 1000
	// state runs one compared GenRefine on g, nothing capped, and
	// returns what located its partner sets.
	state := func(what string, g *graph.Graph) (*Why, *refineGen) {
		w, err := NewWhy(g, q, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.maxOpsPerClass = 1 << 20
		if n := checkState(t, what, w, q, nil)[ops.AddL]; n == 0 {
			t.Errorf("%s: no AddL operator compared", what)
		}
		res := w.Matcher.Match(q)
		rm, im, _, _ := w.Partition(res)
		if len(rm)+len(im) != nF || len(rm) == 0 || len(im) == 0 {
			t.Fatalf("%s: |RM| = %d, |IM| = %d, want all %d F nodes on two sides", what, len(rm), len(im), nF)
		}
		return w, newRefineGen(w.scratch(), w, res, rm, im, nil, 3)
	}

	w, pm := state("all hubs", build(maxPartnersScored+5, 40))
	for v := graph.NodeID(0); v < nF; v++ {
		for _, u := range []query.NodeID{p, r} {
			set, ok := w.partnerCache[partnerKey(v, pm.sig[u])]
			if !ok || len(set) != maxPartnersScored {
				t.Fatalf("all hubs: match %d keeps %d partners at u%d (cached: %v), want the cap %d", v, len(set), u, ok, maxPartnersScored)
			}
		}
	}

	// One set missing: the fill sweeps a single source and restores it.
	w, pm = state("plain", build(1, 4))
	key := partnerKey(33, pm.sig[r])
	want := w.partnerCache[key]
	if len(want) == 0 || len(want) >= maxPartnersScored {
		t.Fatalf("single miss: match %d keeps %d partners at u%d, want a full, non-empty set", 33, len(want), r)
	}
	delete(w.partnerCache, key)
	checkState(t, "single miss", w, q, nil)
	if got, ok := w.partnerCache[key]; !ok || !slices.Equal(sortedNodes(got), sortedNodes(want)) {
		t.Errorf("single miss: the fill left %v (cached: %v), want %v", got, ok, want)
	}
}
