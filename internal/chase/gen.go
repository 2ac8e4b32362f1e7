package chase

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// scoredOp is one generated picky operator with its pickiness score and
// the relevance-delta estimate backing the score (kept for differential
// tables).
type scoredOp struct {
	Op   ops.Op
	Pick float64
	// Cost caches c(o); pickiness ties break toward cheaper operators
	// (same estimated gain, more budget preserved).
	Cost float64
	// Gain is RC̄(o) for relaxations (relevant candidates the operator
	// may convert to matches) or the certainly-removed IM set for
	// refinements.
	Gain []graph.NodeID
	// PickyEdge is the pattern edge that induced the operator, or -1.
	PickyEdge int
}

// opTarget returns the cancel-out target key an operator occupies: its
// literal's ("L:<node>:<attr>") or its edge's ("E:<from>:<to>"). An AddE
// that adds a new node occupies none. Generated chase sequences stay
// canonical by touching each target at most once.
func opTarget(o ops.Op) (key string, ok bool) {
	switch o.Kind {
	case ops.RmL, ops.AddL, ops.RxL, ops.RfL:
		return litTarget(o.U, o.Lit.Attr), true
	case ops.RmE, ops.RxE, ops.RfE:
		return edgeTarget(o.U, o.U2), true
	case ops.AddE:
		if o.NewNode == nil {
			return edgeTarget(o.U, o.U2), true
		}
	}
	return "", false
}

// opTargets returns the targets a sequence occupies.
func opTargets(seq ops.Sequence) map[string]bool {
	t := map[string]bool{}
	for _, o := range seq {
		if k, ok := opTarget(o); ok {
			t[k] = true
		}
	}
	return t
}

// litTarget and edgeTarget render the target keys the generators test
// against opTargets' set; they sit inside every generator loop, hence
// strconv rather than fmt.
func litTarget(u query.NodeID, attr string) string {
	return "L:" + strconv.Itoa(int(u)) + ":" + attr
}

func edgeTarget(a, b query.NodeID) string {
	return "E:" + strconv.Itoa(int(a)) + ":" + strconv.Itoa(int(b))
}

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
	v graph.NodeID
	// failedLits are the focus literals v itself violates.
	failedLits []query.Literal
	// edgeFail records, per pattern edge index, how far the nearest
	// candidate partner is when the edge fails v (graph.Unreachable when
	// none within b_m), and 0 when it does not: it holds, or is not
	// focus-incident.
	edgeFail []int
	// litBlock records partner-side literal blocking: pattern edges
	// whose bound is satisfiable by a correctly-labeled neighbor that
	// fails literals of the other endpoint. Indexed by failing edge;
	// entries are the blocking literals with the nearest unblocking value.
	litBlock [][]blockedLit
	// deep is set when no local failure explains the miss (the node
	// fails a non-focus-local constraint or injectivity).
	deep bool
}

type blockedLit struct {
	u   query.NodeID
	lit query.Literal
	val graph.Value // a nearby value that would satisfy a relaxed literal
}

// analyzeRC inspects why RC node v fails q locally, into b; the slices
// of b are reused from the node it analyzed before.
func (w *Why) analyzeRC(q *query.Query, v graph.NodeID, b *rcBlame) {
	b.v, b.failedLits, b.deep = v, b.failedLits[:0], false
	b.edgeFail = append(b.edgeFail[:0], make([]int, len(q.Edges))...)
	b.litBlock = append(b.litBlock[:0], make([][]blockedLit, len(q.Edges))...)
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
		var blocked []blockedLit
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
						blocked = append(blocked, bl)
					}
				}
			}
		}
		if nearestCand > e.Bound {
			b.edgeFail[ei] = nearestCand
			b.litBlock[ei] = blocked
			failed = true
		}
	}

	if len(b.failedLits) == 0 && !failed {
		b.deep = true
	}
}

// GenRelax implements GenRx (§5.3 + Appendix B): it analyzes every RC
// node's local failures, derives picky edges and picky operators (RmL,
// RxL, RmE, RxE on both focus-incident and deeper edges), scores each
// operator by pickiness p(o) = Σ_{v ∈ RC̄(o)} cl(v, E) / |V_{u_o}|
// (Lemma 5.2), and returns them best-first. It is the test entry point:
// the searches call genRelax on states they have already partitioned.
func (w *Why) GenRelax(q *query.Query, res *match.Result, used map[string]bool, budgetLeft float64) []scoredOp {
	if !expandable(budgetLeft) {
		return nil
	}
	_, _, rc, _ := w.Partition(res)
	return w.genRelax(q, rc, used, budgetLeft)
}

// genRelax is GenRelax over the relevant candidates of a state the
// caller has partitioned and found expandable.
func (w *Why) genRelax(q *query.Query, rc []graph.NodeID, used map[string]bool, budgetLeft float64) []scoredOp {
	if len(rc) == 0 {
		return nil
	}
	// Blame analysis runs bounded BFS per RC node; cap the analyzed set
	// (highest-closeness first) so generation stays within the bounded
	// delay of §5.4. Pickiness then scores against the sample.
	rc = sampleByCl(w, rc, w.Cfg.MaxAnalysis)
	cls := make([]float64, len(rc))
	for i, v := range rc {
		cls[i] = w.Eval.Cl(v)
	}

	// acc accumulates RC̄ per candidate operator, keyed by the
	// operator's identity, as a bitset over the sample: add's i is an
	// index into rc.
	var acc accums
	words := (len(rc) + 63) / 64
	add := func(o ops.Op, pickyEdge int, i int) {
		if !o.Applicable(q, w.params) || o.Cost(w.G) > budgetLeft {
			return
		}
		a, fresh := acc.at(keyOf(q, o, -1))
		if fresh {
			*a = accum{op: scoredOp{Op: o, PickyEdge: pickyEdge}, gain: make([]uint64, words)}
		}
		if bit := uint64(1) << (i % 64); a.gain[i/64]&bit == 0 {
			a.gain[i/64] |= bit
			a.total += cls[i]
		}
	}

	focus := q.Focus
	// Per-literal failing-value pools for the RxL discretization rule.
	type litKey struct {
		u    query.NodeID
		attr string
	}
	failVals := map[litKey]map[float64][]int{}
	noteVal := func(u query.NodeID, attr string, val graph.Value, i int) {
		if val.Kind != graph.Number {
			return
		}
		k := litKey{u, attr}
		if failVals[k] == nil {
			failVals[k] = map[float64][]int{}
		}
		failVals[k][val.Num] = append(failVals[k][val.Num], i)
	}

	var deepRC []int
	var blame rcBlame
	for i, v := range rc {
		w.analyzeRC(q, v, &blame)

		for _, l := range blame.failedLits {
			if !used[litTarget(focus, l.Attr)] {
				add(ops.Op{Kind: ops.RmL, U: focus, Lit: l}, -1, i)
				if val, ok := w.G.Attr(v, l.Attr); ok {
					noteVal(focus, l.Attr, val, i)
				}
			}
		}
		// Failed edges in index order: operator insertion order decides
		// identOf-map accumulation and, downstream, tie-broken top-k
		// output.
		for ei, nearest := range blame.edgeFail {
			if nearest == 0 {
				continue
			}
			e := q.Edges[ei]
			if !used[edgeTarget(e.From, e.To)] {
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
			for _, bl := range blame.litBlock[ei] {
				if used[litTarget(bl.u, bl.lit.Attr)] {
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

	// Deep failures blame every non-focus-incident edge (the paper's
	// rule (2): paths {(u,u'),(u',u_o)} — an overestimate).
	for _, i := range deepRC {
		for ei, e := range q.Edges {
			if e.From == focus || e.To == focus {
				continue
			}
			if used[edgeTarget(e.From, e.To)] {
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
						for _, i := range vals[n] {
							add(o, -1, i)
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
						for _, i := range vals[n] {
							add(o, -1, i)
						}
					}
				}
				count++
			}
		}
	}

	return w.finishScored(&acc, rc)
}

// opIdent is a comparable operator identity (cheaper than rendering
// operator strings in hot loops). AddE-with-fresh-node operators are
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

// opKey is an operator's identity without strings, what the generators'
// accumulators key on: for two operators one generator call builds on q,
// it is equal exactly when their opIdents are, and a map keyed on it
// hashes a few words instead of five strings. Literals are numbered, not
// spelled: Lit by the position of the first literal of q.Nodes[U] equal
// to it, or for AddL, whose literal is not q's, by valueRef. NewLit,
// which only RxL and RfL carry, has Lit's attribute and a Number
// constant, so its operator and number stand for it. A NaN in either
// literal makes the key unequal to itself, as it makes the opIdent.
type opKey struct {
	kind            ops.Kind
	newOp           graph.Op
	u, u2           query.NodeID
	lit, label      int32
	bound, newBound int
	newNum          float64
}

// keyOf returns o's opKey. ref is what a literal of q cannot number: an
// AddL's valueRef, an AddE's fresh node's label id; -1 for the others.
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
// generation, and the index that finds an operator generated again.
type accums struct {
	index map[opKey]int
	list  []accum
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
// per-class-capped slice. An accumulator with a gain set (GenRelax's)
// has it flattened into op.Gain, the nodes of sample its bits index; one
// without (GenRefine's) keeps the op.Gain its generator stored.
func (w *Why) finishScored(acc *accums, sample []graph.NodeID) []scoredOp {
	out := make([]scoredOp, 0, len(acc.list))
	slices.SortStableFunc(acc.list, func(a, b accum) int { // determinism
		return identCompare(identOf(a.op.Op), identOf(b.op.Op))
	})
	for i := range acc.list {
		a := &acc.list[i]
		a.op.Pick = a.total / float64(len(w.FocusCands))
		a.op.Cost = a.op.Op.Cost(w.G)
		if a.gain != nil {
			for i, v := range sample {
				if a.gain[i/64]&(1<<(i%64)) != 0 {
					a.op.Gain = append(a.op.Gain, v)
				}
			}
			sortNodes(a.op.Gain)
		}
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

// accum is one operator being scored. GenRelax accumulates gain across
// its add calls, a bitset over its RC sample, and finishScored flattens
// it into op.Gain; GenRefine scores an operator in one call, writes
// op.Gain directly and leaves gain nil.
type accum struct {
	op    scoredOp
	gain  []uint64
	total float64
}

// sampleByCl keeps at most n nodes, preferring higher closeness (ties
// break by id for determinism). It reads each node's closeness once.
func sampleByCl(w *Why, nodes []graph.NodeID, n int) []graph.NodeID {
	if n <= 0 || len(nodes) <= n {
		return nodes
	}
	type scored struct {
		v  graph.NodeID
		cl float64
	}
	s := make([]scored, len(nodes))
	for i, v := range nodes {
		s[i] = scored{v, w.Eval.Cl(v)}
	}
	slices.SortFunc(s, func(a, b scored) int {
		switch {
		case a.cl > b.cl:
			return -1
		case a.cl < b.cl:
			return 1
		}
		return cmp.Compare(a.v, b.v)
	})
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = s[i].v
	}
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
