package datagen

import (
	"math/rand"
	"sort"

	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// WhySpec parameterizes Why-question generation (§7 "Generating
// Why-Questions"): a ground-truth query spec, how many atomic operators
// disturb it, and how many tuple patterns the exemplar carries.
type WhySpec struct {
	Query QuerySpec
	// DisturbOps is the maximum number of injected operators (the paper
	// injects "up to 5"); the actual count is 1..DisturbOps.
	DisturbOps int
	// MaxTuples caps |T|. Default 5.
	MaxTuples int
	// MaxBound is b_m for disturbance operators. Default 3.
	MaxBound int
	// RefineOnly (resp. RelaxOnly) restricts disturbance to refinements
	// (creates Why-Not/Why-Empty flavors: answers go missing) or to
	// relaxations (creates Why-Many flavor: extra answers appear).
	RefineOnly bool
	RelaxOnly  bool
}

// WhyInstance is one generated Why-question with its ground truth.
type WhyInstance struct {
	Qstar      *query.Query // ground-truth query
	Q          *query.Query // disturbed query given to the algorithms
	Injected   ops.Sequence // the disturbance
	E          *exemplar.Exemplar
	AnswerStar []graph.NodeID // Q*(G), the desired answers
	Answer     []graph.NodeID // Q(G)
}

// GenWhy generates one Why-question over g. The matcher m computes the
// ground-truth and disturbed answers (pass a cache-less matcher; the
// instances must not pollute algorithm caches). It retries internally
// and reports ok=false when the graph yields no usable instance.
func GenWhy(g *graph.Graph, m *match.Matcher, spec WhySpec, rng *rand.Rand) (*WhyInstance, bool) {
	if spec.DisturbOps <= 0 {
		spec.DisturbOps = 5
	}
	if spec.MaxTuples <= 0 {
		spec.MaxTuples = 5
	}
	if spec.MaxBound <= 0 {
		spec.MaxBound = 3
	}
	if spec.Query.MinFocusPredicates == 0 && spec.Query.MaxPredicates > 0 {
		// The exemplar characterizes desired answers through the
		// focus's predicate attributes; queries that leave the focus
		// unconstrained make the Why-question ill-posed.
		spec.Query.MinFocusPredicates = 1
	}
	for attempt := 0; attempt < 30; attempt++ {
		qstar, _, ok := GenQuery(g, spec.Query, rng)
		if !ok {
			continue
		}
		ansStar := m.Match(qstar).Answer
		if len(ansStar) == 0 {
			continue
		}
		k := 1 + rng.Intn(spec.DisturbOps)
		q, injected, ok := disturb(g, qstar, k, spec, rng)
		if !ok {
			continue
		}
		ans := m.Match(q).Answer

		// T prioritizes the missing desired answers, then retained ones.
		missing := diffNodes(ansStar, ans)
		if len(missing) == 0 && !spec.RelaxOnly {
			continue // the disturbance must hide something (why-not)
		}
		sample := missing
		for _, v := range ansStar {
			if len(sample) >= spec.MaxTuples {
				break
			}
			if !containsNode(sample, v) {
				sample = append(sample, v)
			}
		}
		if len(sample) > spec.MaxTuples {
			sample = sample[:spec.MaxTuples]
		}
		e := exemplar.FromEntities(g, sample, TupleAttrs(g, qstar))
		if len(e.Tuples) == 0 {
			continue
		}
		return &WhyInstance{
			Qstar: qstar, Q: q, Injected: injected, E: e,
			AnswerStar: ansStar, Answer: ans,
		}, true
	}
	return nil, false
}

// TupleAttrs picks the attributes tuple patterns constrain: the
// attributes the ground-truth query predicates on at its focus —
// exactly what characterizes the desired answers — padded with up to
// two low-cardinality attributes of the focus label so the exemplar is
// never attribute-free.
func TupleAttrs(g *graph.Graph, qstar *query.Query) []string {
	var attrs []string
	seen := map[string]bool{}
	for _, l := range qstar.Nodes[qstar.Focus].Literals {
		if !seen[l.Attr] {
			seen[l.Attr] = true
			attrs = append(attrs, l.Attr)
		}
	}
	if len(attrs) >= 1 {
		return attrs
	}
	// Fall back to discriminative-but-general attributes of the focus
	// label: small active domains generalize across entities.
	cands := qstar.Candidates(g, qstar.Focus)
	counts := map[string]bool{}
	for i, v := range cands {
		if i >= 50 {
			break
		}
		for _, c := range g.Tuple(v) {
			counts[g.Attrs.Name(c.Attr)] = true
		}
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(attrs) >= 2 {
			break
		}
		if dom := g.ActiveDomain(name); len(dom.Values) > 0 && len(dom.Values) <= 60 {
			attrs = append(attrs, name)
		}
	}
	if len(attrs) == 0 && len(names) > 0 {
		attrs = append(attrs, names[0])
	}
	return attrs
}

// disturb applies k random applicable operators to q*.
func disturb(g *graph.Graph, qstar *query.Query, k int, spec WhySpec, rng *rand.Rand) (*query.Query, ops.Sequence, bool) {
	params := ops.Params{MaxBound: spec.MaxBound}
	q := qstar.Clone()
	var seq ops.Sequence
	for len(seq) < k {
		o, ok := randomOp(g, q, spec, rng)
		if !ok {
			break
		}
		if !o.Applicable(q, params) {
			continue
		}
		q2, err := o.Apply(q)
		if err != nil {
			continue
		}
		q = q2
		seq = append(seq, o)
	}
	if len(seq) == 0 {
		return nil, nil, false
	}
	return q, seq, true
}

// randomOp draws one disturbance operator. Refinements dominate unless
// RelaxOnly: hiding answers is what creates Why-questions.
func randomOp(g *graph.Graph, q *query.Query, spec WhySpec, rng *rand.Rand) (ops.Op, bool) {
	for tries := 0; tries < 40; tries++ {
		refine := !spec.RelaxOnly && (spec.RefineOnly || rng.Intn(4) != 0)
		if refine {
			if o, ok := randomRefine(g, q, spec, rng); ok {
				return o, true
			}
			continue
		}
		if o, ok := randomRelax(g, q, spec, rng); ok {
			return o, true
		}
	}
	return ops.Op{}, false
}

func randomRefine(g *graph.Graph, q *query.Query, spec WhySpec, rng *rand.Rand) (ops.Op, bool) {
	switch rng.Intn(3) {
	case 0: // RfL: tighten a numeric literal past a random domain value
		u := query.NodeID(rng.Intn(len(q.Nodes)))
		for _, l := range q.Nodes[u].Literals {
			if l.Val.Kind != graph.Number {
				continue
			}
			dom := g.ActiveDomain(l.Attr)
			if dom.Numbers < 2 {
				continue
			}
			v := dom.Values[rng.Intn(len(dom.Values))]
			if v.Kind != graph.Number {
				continue
			}
			switch l.Op {
			case graph.GE, graph.GT:
				if v.Num > l.Val.Num {
					return ops.Op{Kind: ops.RfL, U: u, Lit: l,
						NewLit: query.Literal{Attr: l.Attr, Op: graph.GE, Val: v}}, true
				}
			case graph.LE, graph.LT:
				if v.Num < l.Val.Num {
					return ops.Op{Kind: ops.RfL, U: u, Lit: l,
						NewLit: query.Literal{Attr: l.Attr, Op: graph.LE, Val: v}}, true
				}
			}
		}
	case 1: // AddL: equality on a random attribute value of a random candidate
		u := query.NodeID(rng.Intn(len(q.Nodes)))
		cands := q.Candidates(g, u)
		if len(cands) == 0 {
			return ops.Op{}, false
		}
		c := cands[rng.Intn(len(cands))]
		tuple := g.Tuple(c)
		if len(tuple) == 0 {
			return ops.Op{}, false
		}
		cell := tuple[rng.Intn(len(tuple))]
		return ops.Op{Kind: ops.AddL, U: u,
			Lit: query.Literal{Attr: g.Attrs.Name(cell.Attr), Op: graph.EQ, Val: g.Value(cell)}}, true
	default: // RfE: tighten an edge bound
		if len(q.Edges) == 0 {
			return ops.Op{}, false
		}
		e := q.Edges[rng.Intn(len(q.Edges))]
		if e.Bound > 1 {
			return ops.Op{Kind: ops.RfE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound - 1}, true
		}
	}
	return ops.Op{}, false
}

func randomRelax(g *graph.Graph, q *query.Query, spec WhySpec, rng *rand.Rand) (ops.Op, bool) {
	switch rng.Intn(3) {
	case 0: // RmL
		u := query.NodeID(rng.Intn(len(q.Nodes)))
		if lits := q.Nodes[u].Literals; len(lits) > 0 {
			return ops.Op{Kind: ops.RmL, U: u, Lit: lits[rng.Intn(len(lits))]}, true
		}
	case 1: // RxL: loosen a numeric literal
		u := query.NodeID(rng.Intn(len(q.Nodes)))
		for _, l := range q.Nodes[u].Literals {
			if l.Val.Kind != graph.Number {
				continue
			}
			dom := g.ActiveDomain(l.Attr)
			v := dom.Values[rng.Intn(max(1, len(dom.Values)))]
			if v.Kind != graph.Number {
				continue
			}
			switch l.Op {
			case graph.GE, graph.GT:
				if v.Num < l.Val.Num {
					return ops.Op{Kind: ops.RxL, U: u, Lit: l,
						NewLit: query.Literal{Attr: l.Attr, Op: graph.GE, Val: v}}, true
				}
			case graph.LE, graph.LT:
				if v.Num > l.Val.Num {
					return ops.Op{Kind: ops.RxL, U: u, Lit: l,
						NewLit: query.Literal{Attr: l.Attr, Op: graph.LE, Val: v}}, true
				}
			}
		}
	default: // RxE or RmE
		if len(q.Edges) == 0 {
			return ops.Op{}, false
		}
		e := q.Edges[rng.Intn(len(q.Edges))]
		if e.Bound < spec.MaxBound && rng.Intn(2) == 0 {
			return ops.Op{Kind: ops.RxE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound + 1}, true
		}
		if len(q.Edges) > 1 {
			return ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound}, true
		}
	}
	return ops.Op{}, false
}

func diffNodes(a, b []graph.NodeID) []graph.NodeID {
	inB := make(map[graph.NodeID]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	var out []graph.NodeID
	for _, v := range a {
		if !inB[v] {
			out = append(out, v)
		}
	}
	return out
}

func containsNode(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
