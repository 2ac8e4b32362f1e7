package chase

import (
	"container/heap"

	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// state is one node (Q_i, E_i) of the simulated Q-Chase tree: a
// verified query rewrite with its evaluation, plus the secondary
// priority queue Q.O of pending picky operators (generated lazily on
// first visit).
type state struct {
	q          *query.Query
	seq        ops.Sequence
	cost       float64
	res        *match.Result
	cl         float64
	clPlus     float64
	sat        bool // the state satisfies the exemplar
	refineOnly bool // the normal form forbids relaxing after refining
	queue      []scoredOp
	generated  bool
	diff       []DiffEntry
	id         int // insertion order, for deterministic tie-breaking
}

// prio is the frontier priority: the state's closeness plus the
// pickiness of its best pending operator. Pickiness over-approximates
// the one-step closeness gain (Lemma 5.2), so prio is an optimistic
// one-step lookahead that lets the best-first search cross plateaus
// (operator chains whose payoff needs several steps).
func (s *state) prio() float64 {
	if len(s.queue) == 0 {
		return s.cl
	}
	best := s.queue[0].Pick
	if best < 0 {
		best = 0
	}
	return s.cl + best
}

// ensure generates the state's picky operators on first visit
// (procedure NextOp, Fig 7). A state that cannot afford one generates
// none: it keeps an empty queue, ranks by its closeness alone and is
// popped as a backtrack.
func (s *state) ensure(w *Why, kthBestCl float64) {
	if s.generated {
		return
	}
	s.generated = true
	refine, relax := true, true
	if w.Cfg.Prune {
		// Lemma 5.5: refine only when removing IM can still beat the
		// best known rewrite; relax only while cl⁺ can still grow.
		refine = s.clPlus > kthBestCl
		relax = s.clPlus < w.ClStar-1e-12
	}
	s.queue = w.expand(s, refine, relax, 0)
}

// next pops the best pending operator. It returns ok=false when the
// state is exhausted — the caller then backtracks.
func (s *state) next(w *Why, kthBestCl float64) (scoredOp, bool) {
	s.ensure(w, kthBestCl)
	if len(s.queue) > 0 {
		op := s.queue[0]
		s.queue = s.queue[1:]
		return op, true
	}
	return scoredOp{}, false
}

func sortScored(q []scoredOp) {
	// Insertion sort by descending pickiness. Ties order relaxations
	// before refinements (the normal form relaxes first; refinements
	// that pay the same remain reachable afterwards, the reverse is
	// not), then cheaper operators first (same estimated gain, more
	// budget preserved). Queues are small and mostly sorted already.
	phase := func(o scoredOp) int {
		if o.Op.Kind.IsRelax() {
			return 0
		}
		return 1
	}
	better := func(a, b scoredOp) bool {
		switch {
		case a.Pick > b.Pick:
			return true
		case a.Pick < b.Pick:
			return false
		}
		if pa, pb := phase(a), phase(b); pa != pb {
			return pa < pb
		}
		return a.Cost < b.Cost
	}
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && better(q[j], q[j-1]); j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

func hasIM(w *Why, res *match.Result) bool {
	for _, v := range res.Answer {
		if !w.Eval.InRep(v) {
			return true
		}
	}
	return false
}

// stateHeap is the primary priority queue P, ranked by closeness, then
// by remaining potential cl⁺, then depth-first: on plateaus (operators
// that only pay off after further steps) the traversal keeps extending
// the current Q-Chase sequence to its terminal before backtracking,
// exactly as the paper's simulation in Example 5.1 proceeds.
type stateHeap []*state

func (h stateHeap) Len() int { return len(h) }
func (h stateHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch pa, pb := a.prio(), b.prio(); {
	case pa > pb:
		return true
	case pa < pb:
		return false
	}
	switch {
	case a.cl > b.cl:
		return true
	case a.cl < b.cl:
		return false
	}
	switch {
	case a.clPlus > b.clPlus:
		return true
	case a.clPlus < b.clPlus:
		return false
	}
	return a.id > b.id // most recent first: depth-first on plateaus
}
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(*state)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// AnsW computes the optimal query rewrite for the Why-question
// (Algorithm AnsW, Fig 5): an anytime best-first traversal of the
// Q-Chase tree with backtracking, picky-operator generation, cl⁺
// pruning, and early termination at the theoretical optimum cl*.
func (w *Why) AnsW() Answer {
	return w.TopK(1)[0]
}

// TopK returns the k best query rewrites (§6.2), best first. The slice
// always has k entries; when fewer satisfying rewrites exist, the
// remaining entries hold the best-closeness rewrites found (their
// Satisfied field reports the difference), falling back to the original
// query. Each pop depends on every earlier result; the search evaluates
// each step it claims, and no other.
func (w *Why) TopK(k int) []Answer {
	if k < 1 {
		k = 1
	}
	r := w.startRun()
	defer r.end()

	root, best := r.rootState(k)
	visited := map[string]bool{w.Q.Key(): true}
	var pq stateHeap
	heap.Init(&pq)
	heap.Push(&pq, root)
	w.Stats.States++
	nextID := 1

	for pq.Len() > 0 && r.more() {
		s := pq[0] // peek
		op, ok := s.next(w, best.kthCl())
		if !ok {
			heap.Pop(&pq) // backtrack: terminal sequence at s
			continue
		}
		heap.Fix(&pq, 0) // popping an op lowered s's lookahead priority
		st, ok := w.screen(s, op, visited)
		if !ok {
			continue
		}
		if !r.claimStep(&st, visited) {
			break
		}
		w.evaluateStep(&st)
		s2 := w.child(&st, nextID)
		nextID++

		// Prune: a refinement-only subtree can never exceed its cl⁺
		// (Lemma 5.5(2)).
		if w.Cfg.Prune && s2.refineOnly && s2.clPlus <= best.kthCl()+1e-12 {
			w.Stats.Pruned++
			best.offerUnsat(st.ans)
			continue
		}

		if best.offer(st.ans) {
			r.improve(best.list[0])
		}

		// Theoretically optimal: stop (line 13 of Fig 5; for k > 1 the
		// whole list must be saturated). This is one of the pruning
		// strategies, so the AnsWb ablation (Prune off) runs without it.
		if w.Cfg.Prune && best.full() && best.kthCl() >= w.ClStar-1e-12 {
			break
		}

		s2.ensure(w, best.kthCl()) // generate ops now: prio needs the lookahead
		heap.Push(&pq, s2)
		w.Stats.States++
	}
	return best.results()
}

// topList maintains the k best satisfying answers plus a fallback for
// unsatisfying ones.
type topList struct {
	k        int
	list     []Answer // satisfied, sorted by closeness desc
	fallback Answer   // best-closeness rewrite regardless of satisfaction
	root     Answer
}

func newTopList(k int, root Answer) *topList {
	return &topList{k: k, root: root, fallback: root}
}

// rootState evaluates the question's own query (run.root) as a search's
// first state, and starts the list of the k best answers with it.
func (r *run) rootState(k int) (*state, *topList) {
	ans, res := r.root()
	best := newTopList(k, ans)
	if ans.Satisfied {
		best.offer(ans)
	}
	return &state{q: r.w.Q, res: res, cl: ans.Closeness, clPlus: r.w.ClPlus(res.Answer)}, best
}

// offer inserts a satisfied answer; it returns whether the best entry
// improved. Unsatisfied answers only update the fallback.
func (t *topList) offer(a Answer) bool {
	t.offerUnsat(a)
	if !a.Satisfied {
		return false
	}
	pos := len(t.list)
	for i, b := range t.list {
		if a.Closeness > b.Closeness {
			pos = i
			break
		}
	}
	if pos >= t.k {
		return false
	}
	t.list = append(t.list, Answer{})
	copy(t.list[pos+1:], t.list[pos:])
	t.list[pos] = a
	if len(t.list) > t.k {
		t.list = t.list[:t.k]
	}
	return pos == 0
}

func (t *topList) offerUnsat(a Answer) {
	if a.Closeness > t.fallback.Closeness {
		t.fallback = a
	}
}

// kthCl returns cl(Q*_k): the k-th best satisfied closeness, or the
// root closeness when fewer entries exist (§6.2's pruning threshold).
func (t *topList) kthCl() float64 {
	if len(t.list) == t.k {
		return t.list[t.k-1].Closeness
	}
	return t.root.Closeness
}

func (t *topList) full() bool { return len(t.list) == t.k }

// results pads the list to k entries with the fallback/root.
func (t *topList) results() []Answer {
	out := append([]Answer{}, t.list...)
	for len(out) < t.k {
		if len(out) == 0 {
			out = append(out, t.fallback)
		} else {
			out = append(out, t.root)
		}
	}
	return out
}
