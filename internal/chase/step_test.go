package chase

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// oracleEnsureQueue is the queue state.ensure built before the searches
// shared one expansion: refinements, then relaxations, sorted.
func oracleEnsureQueue(w *Why, s *state, kthBestCl float64) []scoredOp {
	budgetLeft := w.Cfg.Budget - s.cost
	if !expandable(budgetLeft) {
		return nil
	}
	refineCond, relaxCond := true, !s.refineOnly
	if w.Cfg.Prune {
		refineCond = s.clPlus > kthBestCl
		relaxCond = relaxCond && s.clPlus < w.ClStar-1e-12
	}
	if !refineCond && !relaxCond {
		return nil
	}
	used := s.seq.Targets()
	rm, im, rc, _ := w.partition(s.res, &w.scratch().parts)
	var refine, relax []scoredOp
	if refineCond {
		refine = w.genRefine(s.res, rm, im, used, budgetLeft)
	}
	if relaxCond {
		relax = w.genRelax(s.res, rc, used, budgetLeft)
	}
	var queue []scoredOp
	switch {
	case len(relax) == 0:
		queue = refine
	case len(refine) == 0:
		queue = relax
	default:
		queue = slices.Concat(refine, relax)
	}
	sortScored(queue)
	return queue
}

// oracleBeamPool is the pool beamSearch built before the searches shared
// one expansion: relaxations, then refinements, each capped at the beam,
// sorted.
func oracleBeamPool(w *Why, s *state, beam int) []scoredOp {
	budgetLeft := w.Cfg.Budget - s.cost
	if !expandable(budgetLeft) {
		return nil
	}
	used := s.seq.Targets()
	rm, im, rc, _ := w.partition(s.res, &w.scratch().parts)
	var pool []scoredOp
	if !s.refineOnly {
		pool = append(pool, capPerClass(w.genRelax(s.res, rc, used, budgetLeft), beam)...)
	}
	pool = append(pool, capPerClass(w.genRefine(s.res, rm, im, used, budgetLeft), beam)...)
	sortScored(pool)
	return pool
}

// TestExpandMatchesBothSearches: on the walked states of every dataset
// kind, under λ = 1 and λ = NaN (which makes every refinement's
// pickiness NaN), the one expansion returns exactly the queue ensure
// built, pruning and not, and exactly the pool the beam built, at
// several widths.
func TestExpandMatchesBothSearches(t *testing.T) {
	mixed, nanPicks := 0, 0
	datasetWhys(t, 2, func(_, what string, w1 *Why, q *query.Query) {
		cfg := w1.Cfg
		cfg.Lambda = math.NaN()
		wNaN, err := NewWhy(w1.G, q, w1.E, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wNaN.maxOpsPerClass = w1.maxOpsPerClass
		for _, w := range []*Why{w1, wNaN} {
			what := fmt.Sprintf("%s λ=%v", what, w.Cfg.Lambda)
			root := w.Closeness(w.Matcher.Match(q).Answer)
			walkStates(t, w, what, q, 3, func(ws walkedState, res *match.Result) {
				s := &state{q: ws.q, seq: ws.seq, cost: ws.cost, res: res, clPlus: w.ClPlus(res.Answer),
					refineOnly: slices.ContainsFunc(ws.seq, func(o ops.Op) bool { return o.Kind.IsRefine() })}
				for _, prune := range []bool{true, false} {
					w.Cfg.Prune = prune
					want := oracleEnsureQueue(w, s, root)
					s.generated, s.queue = false, nil
					s.ensure(w, root)
					sameScored(t, fmt.Sprintf("%s prune=%v ensure", ws.what, prune), s.queue, want)
				}
				w.Cfg.Prune = true
				for _, beam := range []int{1, 3, 1 << 20} {
					got := w.expand(s, true, true, beam)
					sameScored(t, fmt.Sprintf("%s beam %d", ws.what, beam), got, oracleBeamPool(w, s, beam))
					if beam > 1 && slices.ContainsFunc(got, func(o scoredOp) bool { return o.Op.Kind.IsRelax() }) &&
						slices.ContainsFunc(got, func(o scoredOp) bool { return o.Op.Kind.IsRefine() }) {
						mixed++
					}
				}
				for _, o := range s.queue {
					if math.IsNaN(o.Pick) {
						nanPicks++
					}
				}
			})
		}
	})
	if mixed < 10 || nanPicks < 50 {
		t.Errorf("%d queues mixed both classes, %d operators scored NaN: want plenty of both", mixed, nanPicks)
	}
}
