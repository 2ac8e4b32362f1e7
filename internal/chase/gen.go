package chase

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// scoredOp is one generated picky operator with its pickiness score.
type scoredOp struct {
	Op   ops.Op
	Pick float64
	// Cost caches c(o); pickiness ties break toward cheaper operators
	// (same estimated gain, more budget preserved).
	Cost float64
	// PickyEdge is the pattern edge that induced the operator, or -1.
	PickyEdge int
}

// gainTaken, when set, is told the sampled matches an operator's score
// counts (a refinement's certainly-removed IM set, a relaxation's RC̄
// one node at a time), which nothing else keeps. Tests collect them.
var gainTaken func(k opKey, gain []graph.NodeID)

// expandable reports whether a state with budgetLeft = B − c(O) can
// still buy an operator. Every operator costs at least ops.MinCost, so
// below it the generators' own "Cost > budgetLeft" test rejects
// everything they would build; the searches and both picky generators
// ask here first and skip the work. Written as a negation so that it
// rejects exactly what that test rejects, whatever budgetLeft holds.
func expandable(budgetLeft float64) bool {
	return !(budgetLeft < ops.MinCost)
}

// rcBlame is the per-RC-node failure analysis that drives picky
// relaxation: which local conditions of Q keep the node out of Q(G).
type rcBlame struct {
	// failedLits are the focus literals v itself violates, by their
	// place in the focus's list.
	failedLits []int
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
func (b *rcBlame) blocking(ei int) []blockedLit {
	span := b.litBlock[ei]
	return b.blocked[span[0]:span[1]]
}

type blockedLit struct {
	u   query.NodeID
	lit query.Literal
	val graph.Value // a nearby value that would satisfy a relaxed literal
}

// analyzeRC inspects why RC node v fails res's query locally, into b;
// the slices of b are reused from the node it analyzed before.
func (w *Why) analyzeRC(res *match.Result, v graph.NodeID, b *rcBlame) {
	q, pat := res.Query, &res.Pat
	b.failedLits, b.blocked = b.failedLits[:0], b.blocked[:0]
	b.edgeFail = append(b.edgeFail[:0], make([]int, len(q.Edges))...)
	b.litBlock = append(b.litBlock[:0], make([][2]int32, len(q.Edges))...)
	failed := false
	focus := q.Focus

	for li, l := range pat.Nodes[focus].Lits {
		if !l.Sat(w.G, v) {
			b.failedLits = append(b.failedLits, li)
		}
	}

	// The two balls, forward and backward, are taken on first use,
	// scanned and dropped: a traverser's storage serves them (each
	// direction keeps its own until it is asked again).
	tr := w.G.Traverser()
	defer tr.Release()
	var balls [2][]graph.NodeDist

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
		oc := &pat.Nodes[other]
		if balls[dir] == nil {
			balls[dir] = tr.Ball(v, w.Cfg.MaxBound, dir)
		}
		for _, nd := range balls[dir][1:] { // v itself is no partner
			nb, d := nd.V, int(nd.D)
			if oc.Check.Candidate(w.G, nb) {
				nearestCand = min(nearestCand, d)
				continue
			}
			// A correctly-labeled neighbor within the current bound that
			// fails literals of the other endpoint blames those literals.
			if d <= e.Bound && oc.Label.Candidate(w.G, nb) {
				for li, l := range oc.Lits {
					if !l.Sat(w.G, nb) {
						bl := blockedLit{u: other, lit: q.Nodes[other].Literals[li]}
						bl.val, _ = w.G.AttrByID(nb, l.Attr) // the zero Value when nb lacks it
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

	b.deep = len(b.failedLits) == 0 && !failed
}

// GenRelax implements GenRx (§5.3 + Appendix B): it analyzes every RC
// node's local failures, derives picky edges and picky operators (RmL,
// RxL, RmE, RxE on both focus-incident and deeper edges), scores each
// operator by pickiness p(o) = Σ_{v ∈ RC̄(o)} cl(v, E) / |V_{u_o}|
// (Lemma 5.2), and returns them best-first. It is the test entry point:
// the searches call genRelax on states they have already partitioned.
// res is the state's evaluation, its query compiled (match.Result.Pat).
func (w *Why) GenRelax(res *match.Result, used ops.Targets, budgetLeft float64) []scoredOp {
	if !expandable(budgetLeft) {
		return nil
	}
	_, _, rc, _ := w.partition(res, &w.scratch().parts)
	return w.genRelax(res, rc, used, budgetLeft)
}

// genRelax is GenRelax over the relevant candidates of a state the
// caller has partitioned and found expandable.
func (w *Why) genRelax(res *match.Result, rc []graph.NodeID, used ops.Targets, budgetLeft float64) []scoredOp {
	if len(rc) == 0 {
		return nil
	}
	q, pat := res.Query, &res.Pat
	sc := w.scratch()
	sc.busy = true
	// Blame analysis runs bounded BFS per RC node; cap the analyzed set
	// (highest-closeness first) so generation stays within the bounded
	// delay of §5.4. Pickiness then scores against the sample.
	rc = sampleByCl(w, rc, w.Cfg.MaxAnalysis, &sc.rc)
	cls := sc.cls[:0]
	for _, v := range rc {
		cls = append(cls, w.Eval.Cl(v))
	}
	sc.cls = cls

	// acc accumulates RC̄ per candidate operator, keyed by the
	// operator's identity, as a bitset over the sample: add's i is an
	// index into rc.
	acc := &sc.acc
	acc.reset()
	words := int32((len(rc) + 63) / 64)
	add := func(o ops.Op, pickyEdge int, i int) {
		if !o.Applicable(q, w.params) || o.Cost(w.G) > budgetLeft {
			return
		}
		a, fresh := acc.at(keyOf(q, o, -1))
		if fresh {
			a.op = scoredOp{Op: o, PickyEdge: pickyEdge}
			a.bitsAt = int32(len(acc.bits))
			acc.bits = append(acc.bits, make([]uint64, words)...)
		}
		gain := acc.bits[a.bitsAt : a.bitsAt+words]
		if bit := uint64(1) << (i % 64); gain[i/64]&bit == 0 {
			gain[i/64] |= bit
			a.total += cls[i]
			if gainTaken != nil {
				gainTaken(keyOf(q, o, -1), rc[i:i+1])
			}
		}
	}

	focus := q.Focus
	// The failing values of blamed literals, for the RxL discretization
	// rule.
	notes := sc.notes[:0]
	noteVal := func(u query.NodeID, attr string, val graph.Value, i int) {
		if val.Kind == graph.Number {
			notes = append(notes, failNote{u: u, attr: attr, num: val.Num, i: int32(i)})
		}
	}

	deepRC := sc.deepRC[:0]
	blame := &sc.blame
	for i, v := range rc {
		w.analyzeRC(res, v, blame)

		for _, li := range blame.failedLits {
			l := q.Nodes[focus].Literals[li]
			if !used.Has(ops.LitTarget(focus, l.Attr)) {
				add(ops.Op{Kind: ops.RmL, U: focus, Lit: l}, -1, i)
				if val, ok := w.G.AttrByID(v, pat.Nodes[focus].Lits[li].Attr); ok {
					noteVal(focus, l.Attr, val, i)
				}
			}
		}
		// Failed edges in index order: operator insertion order decides
		// accumulation and, downstream, tie-broken top-k output.
		for ei, nearest := range blame.edgeFail {
			if nearest == 0 {
				continue
			}
			e := q.Edges[ei]
			if !used.Has(ops.EdgeTarget(e.From, e.To)) {
				add(ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound}, ei, i)
				// Step-wise bound relaxation (Appendix B); the RC node
				// only counts when one step suffices.
				if e.Bound < w.Cfg.MaxBound && nearest <= e.Bound+1 {
					add(ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound + 1}, ei, i)
				}
				// Direct relaxation to the needed bound when farther.
				if nearest != graph.Unreachable && nearest > e.Bound+1 && nearest <= w.Cfg.MaxBound {
					add(ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: nearest}, ei, i)
				}
			}
			for _, bl := range blame.blocking(ei) {
				if used.Has(ops.LitTarget(bl.u, bl.lit.Attr)) {
					continue
				}
				add(ops.Op{Kind: ops.RmL, U: bl.u, Lit: bl.lit}, ei, i)
				noteVal(bl.u, bl.lit.Attr, bl.val, i)
			}
		}
		if blame.deep {
			deepRC = append(deepRC, i)
		}
	}

	sc.deepRC = deepRC

	// Deep failures blame every non-focus-incident edge (the paper's
	// rule (2): paths {(u,u'),(u',u_o)} — an overestimate).
	for _, i := range deepRC {
		for ei, e := range q.Edges {
			if e.From == focus || e.To == focus || used.Has(ops.EdgeTarget(e.From, e.To)) {
				continue
			}
			add(ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound}, ei, i)
			if e.Bound < w.Cfg.MaxBound {
				add(ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound + 1}, ei, i)
			}
		}
	}

	// RxL discretization: for each blamed numeric literal (in pattern-node
	// then attribute order, for deterministic generation), sort the
	// failing values and generate one RxL per distinct value — relaxing
	// up to that value admits every RC node at or before it. The stable
	// sort keeps each value's notes in the order they were taken.
	slices.SortStableFunc(notes, func(a, b failNote) int {
		return cmp.Or(cmp.Compare(a.u, b.u), strings.Compare(a.attr, b.attr), cmp.Compare(a.num, b.num))
	})
	sc.notes = notes
	for len(notes) > 0 {
		n := 1
		for n < len(notes) && notes[n].u == notes[0].u && notes[n].attr == notes[0].attr {
			n++
		}
		lit := notes[:n]
		notes = notes[n:]
		u, attr := lit[0].u, lit[0].attr
		li := -1
		for _, op := range []graph.Op{graph.GE, graph.GT, graph.LE, graph.LT, graph.EQ} {
			if i := q.FindLiteral(u, attr, op); i >= 0 {
				li = i
				break
			}
		}
		if li < 0 {
			continue
		}
		l := q.Nodes[u].Literals[li]
		if l.Val.Kind != graph.Number {
			continue
		}
		// The distinct values, ascending: runs of equal numbers.
		nums := sc.nums[:0]
		for a := 0; a < len(lit); {
			b := a + 1
			for b < len(lit) && lit[b].num == lit[a].num {
				b++
			}
			nums = append(nums, failRun{num: lit[b-1].num, lo: int32(a), hi: int32(b)})
			a = b
		}
		sc.nums = nums
		addRun := func(o ops.Op, r failRun) {
			for _, note := range lit[r.lo:r.hi] {
				add(o, -1, int(note.i))
			}
		}
		const maxRxLValues = 8
		switch l.Op {
		case graph.GE, graph.GT, graph.EQ:
			// Failing values lie below c; relax the lower bound downward,
			// nearest first.
			count := 0
			for i := len(nums) - 1; i >= 0 && count < maxRxLValues; i-- {
				a := nums[i].num
				if a >= l.Val.Num {
					continue
				}
				o := ops.Op{Kind: ops.RxL, U: u, Lit: l,
					NewLit: query.Literal{Attr: attr, Op: graph.GE, Val: graph.N(a)}}
				for _, r := range nums[i:] {
					if n := r.num; n >= a && n < l.Val.Num {
						addRun(o, r)
					}
				}
				count++
			}
		}
		switch l.Op {
		case graph.LE, graph.LT, graph.EQ:
			count := 0
			for i := 0; i < len(nums) && count < maxRxLValues; i++ {
				a := nums[i].num
				if a <= l.Val.Num {
					continue
				}
				o := ops.Op{Kind: ops.RxL, U: u, Lit: l,
					NewLit: query.Literal{Attr: attr, Op: graph.LE, Val: graph.N(a)}}
				for _, r := range nums[:i+1] {
					if n := r.num; n <= a && n > l.Val.Num {
						addRun(o, r)
					}
				}
				count++
			}
		}
	}

	out := w.finishScored(acc)
	sc.busy = false
	return out
}

// failNote is a failing value genRelax noted: RC sample node i carries
// num at attribute attr of pattern node u, where a literal blames it.
type failNote struct {
	u    query.NodeID
	attr string
	num  float64
	i    int32
}

// failRun is one distinct failing value of a literal: the notes [lo, hi)
// of its sorted run, and the number standing for them.
type failRun struct {
	num    float64
	lo, hi int32
}

// opCompare orders operators deterministically: by kind, nodes,
// literals (Literal.Compare), bounds, then a fresh node's label.
func opCompare(a, b ops.Op) int {
	return cmp.Or(
		cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(a.U, b.U),
		cmp.Compare(a.U2, b.U2),
		a.Lit.Compare(b.Lit),
		a.NewLit.Compare(b.NewLit),
		cmp.Compare(a.Bound, b.Bound),
		cmp.Compare(a.NewBound, b.NewBound),
		strings.Compare(newLabel(a), newLabel(b)),
	)
}

// newLabel is the label of o's fresh node, "" when it adds none.
func newLabel(o ops.Op) string {
	if o.NewNode == nil {
		return ""
	}
	return o.NewNode.Label
}

// opKey is an operator's identity without strings, what the generators'
// accumulators and AnsWE's plans key on: for two operators one call
// builds on q, it is equal exactly when the operators are field by field
// (== on each, a fresh node by its label), and a map keyed on it hashes
// a few words instead of five strings. Literals are numbered, not
// spelled: Lit by the position of the first literal of q.Nodes[U] equal
// to it, or for AddL, whose literal is not q's, by its value's code.
// NewLit, which only RxL and RfL carry, has Lit's attribute and a Number
// constant, so its operator and number stand for it. A NaN in either
// literal makes the key unequal to itself, as it makes the literal.
type opKey struct {
	kind            ops.Kind
	newOp           graph.Op
	u, u2           query.NodeID
	lit, label      int32
	bound, newBound int
	newNum          float64
}

// keyOf returns o's opKey. ref is what a literal of q cannot number: an
// AddL's value code, an AddE's fresh node's label id; -1 for the others.
func keyOf(q *query.Query, o ops.Op, ref int32) opKey {
	k := opKey{kind: o.Kind, newOp: o.NewLit.Op, u: o.U, u2: o.U2, lit: -1, label: -1,
		bound: o.Bound, newBound: o.NewBound, newNum: o.NewLit.Val.Num}
	switch o.Kind {
	case ops.RmL, ops.RxL, ops.RfL:
		k.lit = int32(slices.Index(q.Nodes[o.U].Literals, o.Lit))
		if k.lit < 0 {
			k.newNum = math.NaN() // a literal equal to none, itself included
		}
	case ops.AddL:
		k.lit = ref
	case ops.AddE:
		if o.NewNode != nil {
			k.label = ref
		}
	}
	return k
}

// accums is the operators one generator call scores, in order of first
// generation, the index that finds an operator generated again, and
// GenRelax's bitsets over its sample. It lives in a genScratch, and
// reset empties it for the next call.
type accums struct {
	index map[opKey]int
	list  []accum
	bits  []uint64
	perm  []int32 // finishScored's order of list
}

func (as *accums) reset() {
	clear(as.index)
	as.list, as.bits = as.list[:0], as.bits[:0]
}

// at returns the accumulator of the operator keyed k, and whether it is
// new: a new one is appended zero, for the caller to fill. The pointer is
// good until the next call.
func (as *accums) at(k opKey) (*accum, bool) {
	if i, ok := as.index[k]; ok {
		return &as.list[i], false
	}
	if as.index == nil {
		as.index = map[opKey]int{}
	}
	as.index[k] = len(as.list)
	as.list = append(as.list, accum{})
	return &as.list[len(as.list)-1], true
}

// maxOpsPerClass is how many picky operators one state generates per
// operator class.
const maxOpsPerClass = 64

// finishScored converts accumulated operators into a pickiness-sorted,
// per-class-capped slice.
//
// One sort of an index permutation orders the operators by pickiness
// (descending), then cost, then identity, then generation order: the
// order that a stable sort by identity followed by a stable sort by
// pickiness and cost gives. No pick is NaN unless every pick of the call
// is (λ = NaN makes every refinement's), and then both orders are by
// cost. Only what the class cap keeps is copied out, into a slice of
// its exact length.
func (w *Why) finishScored(acc *accums) []scoredOp {
	list, perm := acc.list, acc.perm[:0]
	for i := range list {
		a := &list[i]
		a.op.Pick = a.total / float64(len(w.FocusCands))
		a.op.Cost = a.op.Op.Cost(w.G)
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, func(i, j int32) int {
		a, b := &list[i].op, &list[j].op
		switch {
		case a.Pick > b.Pick:
			return -1
		case a.Pick < b.Pick:
			return 1
		case a.Cost < b.Cost:
			return -1
		case a.Cost > b.Cost:
			return 1
		}
		return cmp.Or(opCompare(a.Op, b.Op), cmp.Compare(i, j))
	})
	var count [ops.RfE + 1]int
	kept := perm[:0]
	for _, i := range perm {
		a := &list[i]
		if count[a.op.Op.Kind] >= w.maxOpsPerClass {
			continue
		}
		count[a.op.Op.Kind]++
		kept = append(kept, i)
	}
	acc.perm = perm

	out := make([]scoredOp, len(kept))
	for k, i := range kept {
		out[k] = list[i].op
	}
	return out
}

// accum is one operator being scored: its pickiness total and, for
// GenRelax, which accumulates the total across its add calls, where its
// bitset over the sample starts in the accums' bits.
type accum struct {
	op     scoredOp
	total  float64
	bitsAt int32
}

// clSample is sampleByCl's storage.
type clSample struct {
	out  []graph.NodeID
	byCl []clNode
}

type clNode struct {
	v  graph.NodeID
	cl float64
}

// sampleByCl keeps at most n nodes, preferring higher closeness (ties
// break by id for determinism); a sample it draws lives in s. It reads
// each node's closeness once.
func sampleByCl(w *Why, nodes []graph.NodeID, n int, s *clSample) []graph.NodeID {
	if n <= 0 || len(nodes) <= n {
		return nodes
	}
	byCl := s.byCl[:0]
	for _, v := range nodes {
		byCl = append(byCl, clNode{v, w.Eval.Cl(v)})
	}
	slices.SortFunc(byCl, func(a, b clNode) int {
		switch {
		case a.cl > b.cl:
			return -1
		case a.cl < b.cl:
			return 1
		}
		return cmp.Compare(a.v, b.v)
	})
	out := s.out[:0]
	for _, c := range byCl[:n] {
		out = append(out, c.v)
	}
	s.byCl, s.out = byCl, out
	return out
}

// capPerClass keeps at most n operators of each class, preserving order.
func capPerClass(in []scoredOp, n int) []scoredOp {
	var count [ops.RfE + 1]int
	out := in[:0]
	for _, s := range in {
		if count[s.Op.Kind] >= n {
			continue
		}
		count[s.Op.Kind]++
		out = append(out, s)
	}
	return out
}

// genScratch is operator generation's working memory: everything a
// generator call needs only until it returns. A run borrows one from
// its Session when it starts and gives it back when it ends (startRun,
// run.end); a call resets what it uses and grows what is too
// small, so on a warmed scratch a call allocates only what it returns —
// the scored operators — and the partner sets it stores on the Why.
// Nothing a call returns points into it.
type genScratch struct {
	// busy is set while a generator call runs. A panic leaves it set, and
	// a busy scratch is dropped, never reused: addL's counts may be
	// half-reset.
	busy bool

	acc   accums
	parts [4][]graph.NodeID // Partition's lists: rm, im, rc, ic

	// genRelax's sample, closeness column, blame, deep failures and
	// failing values.
	rc     clSample
	cls    []float64
	blame  rcBlame
	deepRC []int
	notes  []failNote
	nums   []failRun

	// GenRefine's: the generator, its samples and partner-set buffers,
	// the removal sets of the operator being scored, and addL's and
	// addE's tables.
	refine       refineGen
	rm, im       clSample
	sig          []byte
	miss, part   []graph.NodeID
	buf          []graph.NodeID // fillPartners' sets, maxPartnersScored per source
	imOut, rmOut []graph.NodeID
	addL         addLScratch
	balls        []graph.NodeDist // addE's balls, located by ballAt
	ballAt       [][2]int32
	labels       []labelInfo
	found        []int
}

// scratch returns the generation scratch of the Why's run, or outside a
// run (the exported generators, which tests call directly) one of its
// own. A scratch still busy when a call begins was left so by a panic,
// and is replaced.
func (w *Why) scratch() *genScratch {
	if w.gs == nil || w.gs.busy {
		w.gs = new(genScratch)
	}
	return w.gs
}
