package chase

import (
	"slices"
	"sort"

	"wqe/internal/graph"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// AnsWE answers removal-only Why-Empty questions (§6.1, Lemma 6.2):
// given a query with no relevant matches, find RmL/RmE operators of
// total cost ≤ B whose removal makes at least one relevant candidate a
// match.
//
// Per the lemma's proof, the query is decomposed into atomic-condition
// fragments — each focus literal, each non-focus node's connection to
// the focus, and each non-focus literal — and every relevant candidate
// is associated with the relaxation operators of the fragments it
// fails. The cheapest candidate within budget wins. The lemma covers
// star queries exactly; for deeper shapes the chosen rewrite is
// verified by evaluation and the next candidate is tried on failure.
func (w *Why) AnsWE() Answer {
	r := w.startRun()
	defer r.end()

	rootAns, rootRes := r.root()
	q, pat := w.Q, &rootRes.Pat
	focus := q.Focus

	// Branch edges: for every non-focus node, the first pattern edge on
	// its (undirected) path toward the focus; removing it detaches the
	// node's branch.
	branch := branchEdges(q)

	// Relevant candidates: rep members carrying the focus label.
	var rc []graph.NodeID
	for _, v := range w.FocusCands {
		if w.Eval.InRep(v) {
			rc = append(rc, v)
		}
	}
	if len(rc) == 0 {
		return rootAns
	}

	// Every node test reads q as the root's evaluation compiled it. A
	// non-focus node u connected to the focus is tested within radius(u)
	// of a candidate: its pattern distance from the focus, capped at
	// 2·b_m. One ball per candidate, at the largest radius, serves every
	// node: u's ball is its BFS-order prefix within radius(u).
	radius := func(u int) int { return min(pat.Dist[u], 2*w.Cfg.MaxBound) } // graph.Unreachable is the largest int
	maxRadius := 0
	for u, be := range branch {
		if be >= 0 {
			maxRadius = max(maxRadius, radius(u))
		}
	}

	type plan struct {
		v    graph.NodeID
		ops  ops.Sequence
		cost float64
	}
	var plans []plan
	for _, v := range rc {
		// A plan takes a ball: poll per candidate.
		if !r.more() {
			break
		}
		var seq ops.Sequence
		addOp := func(o ops.Op) { // once: a detached branch's RmE is met per node
			k := keyOf(q, o, -1)
			if !slices.ContainsFunc(seq, func(x ops.Op) bool { return keyOf(q, x, -1) == k }) {
				seq = append(seq, o)
			}
		}

		// Fragment class 1: focus literals.
		for li, l := range pat.Nodes[focus].Lits {
			if !l.Sat(w.G, v) {
				addOp(ops.Op{Kind: ops.RmL, U: focus, Lit: q.Nodes[focus].Literals[li]})
			}
		}

		// Fragment classes 2 and 3: per non-focus node, its connection
		// and its literals, each evaluated via a bounded neighborhood of
		// the candidate, the candidate itself (the ball's first node)
		// left out.
		around := w.G.Ball(v, maxRadius, graph.Both)[1:]
		for ui, be := range branch {
			if be < 0 {
				continue // the focus, or already disconnected from it
			}
			u := query.NodeID(ui)
			ball := around[:sort.Search(len(around), func(i int) bool { return int(around[i].D) > radius(ui) })]
			node := &pat.Nodes[u]
			labeled := func(nd graph.NodeDist) bool { return node.Label.Candidate(w.G, nd.V) }

			// Class 2: does any label-compatible node sit within range?
			if !slices.ContainsFunc(ball, labeled) {
				e := q.Edges[be]
				addOp(ops.Op{Kind: ops.RmE, U: e.From, U2: e.To, Bound: e.Bound})
				continue // literals on a detached branch are moot
			}
			// Class 3: per-literal fragments.
			for li, l := range node.Lits {
				if !slices.ContainsFunc(ball, func(nd graph.NodeDist) bool { return labeled(nd) && l.Sat(w.G, nd.V) }) {
					addOp(ops.Op{Kind: ops.RmL, U: u, Lit: q.Nodes[u].Literals[li]})
				}
			}
		}
		plans = append(plans, plan{v: v, ops: seq, cost: seq.Cost(w.G)})
	}

	sort.SliceStable(plans, func(i, j int) bool { return plans[i].cost < plans[j].cost })
	for _, p := range plans {
		if p.cost > w.Cfg.Budget {
			break
		}
		if len(p.ops) == 0 {
			continue // already a match locally but not globally: skip
		}
		q2, err := p.ops.Apply(q, w.params)
		if err != nil {
			continue
		}
		// One verification evaluation per plan: this is the loop a
		// cancelled or deadline-expired Why-Empty question must leave.
		if !r.claim() {
			break
		}
		ans2, res2 := w.evaluate(nil, q2, p.ops) // removals only: nothing to take from the root
		if res2.Has(p.v) {
			r.improve(ans2)
			return ans2
		}
	}
	return rootAns
}

// branchEdges gives every non-focus pattern node the index of the edge
// that connects its branch toward the focus (a BFS tree over the
// undirected pattern); -1 to the focus and to the nodes the pattern does
// not connect to it.
func branchEdges(q *query.Query) []int {
	branch := make([]int, len(q.Nodes))
	for i := range branch {
		branch[i] = -1
	}
	for queue := []query.NodeID{q.Focus}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for ei, e := range q.Edges {
			nb := e.From
			switch u {
			case e.From:
				nb = e.To
			case e.To:
			default:
				continue
			}
			if nb != q.Focus && branch[nb] < 0 {
				// Deeper nodes inherit the root edge of their branch:
				// removing it detaches them too.
				branch[nb] = ei
				if u != q.Focus {
					branch[nb] = branch[u]
				}
				queue = append(queue, nb)
			}
		}
	}
	return branch
}
