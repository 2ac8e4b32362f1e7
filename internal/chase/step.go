package chase

import (
	"slices"

	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// step is one Q-Chase step, the unit AnsW and the beam searches share:
// an operator of a parent state's queue, the rewrite it leads to, and,
// once evaluated, the rewrite's answer. A step goes screen → claim →
// evaluate → child, all on the question's one goroutine: each search
// evaluates a step right after claiming it, and no step it has not
// claimed.
type step struct {
	parent *state
	op     scoredOp
	q2     *query.Query
	key    string       // q2.Key(), the rewrite's identity in visited
	seq2   ops.Sequence // set by claimStep
	ans    Answer       // set by evaluation
	res    *match.Result
}

// screen is what a step must pass before it is claimed: o must fit the
// budget left at s, apply to s's query, and lead to a rewrite no claimed
// step has produced. ok is false when it does not.
func (w *Why) screen(s *state, o scoredOp, visited map[string]bool) (st step, ok bool) {
	if s.cost+o.Op.Cost(w.G) > w.Cfg.Budget+1e-9 {
		return step{}, false
	}
	q2, err := o.Op.Apply(s.q)
	if err != nil {
		return step{}, false // the generator emitted an op that no longer fits s.q
	}
	key := q2.Key()
	if visited[key] {
		return step{}, false
	}
	return step{parent: s, op: o, q2: q2, key: key}, true
}

// claimStep claims a screened step from the run (run.claim) and marks its
// rewrite visited. It reports false, claiming nothing, once the run has
// stopped.
func (r *run) claimStep(st *step, visited map[string]bool) bool {
	if !r.claim() {
		return false
	}
	visited[st.key] = true
	st.seq2 = append(slices.Clone(st.parent.seq), st.op.Op)
	return true
}

// evaluateStep evaluates a claimed step beside its parent's result
// (Why.evaluate).
func (w *Why) evaluateStep(st *step) {
	st.ans, st.res = w.evaluate(st.parent.res, st.q2, st.seq2)
}

// child builds the state an evaluated step leads to, and completes the
// step's answer with the state's lineage: the parent's, plus the step's
// own differential-table row. id orders the state among its frontier's
// equals (stateHeap).
func (w *Why) child(st *step, id int) *state {
	s := st.parent
	s2 := &state{
		q:          st.q2,
		seq:        st.seq2,
		cost:       st.ans.Cost,
		res:        st.res,
		cl:         st.ans.Closeness,
		clPlus:     w.ClPlus(st.res.Answer),
		sat:        st.ans.Satisfied,
		refineOnly: s.refineOnly || st.op.Op.Kind.IsRefine(),
		id:         id,
	}
	s2.diff = append(slices.Clone(s.diff),
		w.diffEntry(st.op.Op, st.op.PickyEdge, s.res.Answer, st.res.Answer))
	st.ans.Diff = s2.diff
	return s2
}

// expand generates the picky operators of state s (procedure NextOp,
// Fig 7), best first: refinements when refine holds, relaxations when
// relax holds and s may still relax, each class capped at perClass
// operators when perClass > 0 (the beam's width). A state that cannot
// afford an operator gets none.
func (w *Why) expand(s *state, refine, relax bool, perClass int) []scoredOp {
	budgetLeft := w.Cfg.Budget - s.cost
	relax = relax && !s.refineOnly
	if !expandable(budgetLeft) || !refine && !relax {
		return nil
	}
	used := s.seq.Targets()
	rm, im, rc, _ := w.partition(s.res, &w.scratch().parts)
	var rf, rx []scoredOp
	if refine {
		rf = w.genRefine(s.res, rm, im, used, budgetLeft)
	}
	if relax {
		rx = w.genRelax(s.res, rc, used, budgetLeft)
	}
	if perClass > 0 {
		rf, rx = capPerClass(rf, perClass), capPerClass(rx, perClass)
	}
	// The stable sort keeps each generator's order among equal scores,
	// and orders relaxations first on ties: which list comes first does
	// not change the queue.
	queue := rf
	switch {
	case len(rf) == 0:
		queue = rx
	case len(rx) > 0:
		queue = slices.Concat(rf, rx)
	}
	sortScored(queue)
	return queue
}
