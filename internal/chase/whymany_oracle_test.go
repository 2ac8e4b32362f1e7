package chase

import (
	"slices"

	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
)

// oracleApxWhyM is ApxWhyM as it stood while its cover sets were maps,
// verbatim apart from its name, its lint directives, which the linter,
// skipping test files, never reads, and its calls on the run and its
// seed evaluations, which follow ApxWhyM's.
func oracleApxWhyM(w *Why) Answer {
	r := w.startRun()
	defer r.end()

	rootAns, rootRes := r.root()
	if !hasIM(w, rootRes) {
		return rootAns // nothing to remove
	}

	seeds := w.seedRf(rootRes)
	if len(seeds) == 0 {
		return rootAns
	}

	// Exact per-seed coverage: evaluate Q ⊕ {o} once per seed, in seed
	// order, and record which irrelevant (and relevant) matches it
	// removes. This "ensures the removal of IM(o)" as the paper requires
	// of SeedRf.
	type seedCand struct {
		op  ops.Op
		ans Answer
		res *match.Result
	}
	var pending []seedCand
	for _, s := range seeds {
		q2, err := s.Op.Apply(w.Q)
		if err != nil {
			continue // seed op no longer fits Q
		}
		if !r.claim() {
			break
		}
		ans, res := w.evaluate(rootRes, q2, ops.Sequence{s.Op})
		pending = append(pending, seedCand{op: s.Op, ans: ans, res: res})
	}

	type seed struct {
		op        ops.Op
		cost      float64
		removedIM map[graph.NodeID]bool
		removedRM map[graph.NodeID]bool
		single    Answer
	}
	var evaluated []seed
	for _, c := range pending {
		sd := seed{op: c.op, cost: c.op.Cost(w.G), single: c.ans,
			removedIM: map[graph.NodeID]bool{}, removedRM: map[graph.NodeID]bool{}}
		for _, v := range rootRes.Answer {
			if c.res.Has(v) {
				continue
			}
			if w.Eval.InRep(v) {
				sd.removedRM[v] = true
			} else {
				sd.removedIM[v] = true
			}
		}
		if len(sd.removedIM) == 0 {
			continue // covers nothing
		}
		evaluated = append(evaluated, sd)
	}
	if len(evaluated) == 0 {
		return rootAns
	}

	nf := float64(len(w.FocusCands))
	weight := func(im, rm map[graph.NodeID]bool) float64 {
		// Sum closeness in sorted node order: float addition rounds
		// differently under different orders, and the greedy selection
		// below compares these sums.
		ids := make([]graph.NodeID, 0, len(rm))
		for v := range rm {
			ids = append(ids, v)
		}
		slices.Sort(ids)
		var loss float64
		for _, v := range ids {
			loss += w.Eval.Cl(v)
		}
		return (w.Cfg.Lambda*float64(len(im)) - loss) / nf
	}

	// O2: the single best seed within budget (line 3 of Fig 9).
	best2 := -1
	for i, s := range evaluated {
		if s.cost > w.Cfg.Budget {
			continue
		}
		if best2 < 0 || weight(s.removedIM, s.removedRM) > weight(evaluated[best2].removedIM, evaluated[best2].removedRM) {
			best2 = i
		}
	}

	// O1: greedy marginal-gain-per-cost selection (lines 4-8).
	var o1 []int
	var usedTargets ops.Targets
	coveredIM := map[graph.NodeID]bool{}
	coveredRM := map[graph.NodeID]bool{}
	cost1 := 0.0
	remaining := make([]bool, len(evaluated))
	for i := range remaining {
		remaining[i] = true
	}
	for {
		// The greedy selection is pure bookkeeping over already-committed
		// evaluations, but each round scans every seed; poll the cutoff
		// so a cancelled or expired question returns its best-so-far
		// cover instead of finishing the set-cover loop.
		if !r.more() {
			break
		}
		bestIdx, bestRatio := -1, 0.0
		base := weight(coveredIM, coveredRM)
		for i, s := range evaluated {
			if !remaining[i] || cost1+s.cost > w.Cfg.Budget {
				continue
			}
			if t, ok := s.op.Target(); ok && usedTargets.Has(t) {
				continue
			}
			im2 := oracleUnionSet(coveredIM, s.removedIM)
			rm2 := oracleUnionSet(coveredRM, s.removedRM)
			ratio := (weight(im2, rm2) - base) / s.cost
			if bestIdx < 0 || ratio > bestRatio {
				bestIdx, bestRatio = i, ratio
			}
		}
		if bestIdx < 0 || bestRatio <= 0 {
			break
		}
		s := evaluated[bestIdx]
		remaining[bestIdx] = false
		o1 = append(o1, bestIdx)
		cost1 += s.cost
		if t, ok := s.op.Target(); ok {
			usedTargets = append(usedTargets, t)
		}
		for v := range s.removedIM {
			coveredIM[v] = true
		}
		for v := range s.removedRM {
			coveredRM[v] = true
		}
		if cost1 >= w.Cfg.Budget {
			break
		}
	}

	// Construct both candidate rewrites and keep the better (line 9).
	result := rootAns
	if len(o1) > 0 {
		seq := make(ops.Sequence, 0, len(o1))
		for _, i := range o1 {
			seq = append(seq, evaluated[i].op)
		}
		if q1, err := seq.Apply(w.Q, w.params); err == nil && r.claim() {
			ans1, _ := w.evaluate(rootRes, q1, seq)
			if ans1.Closeness > result.Closeness {
				result = ans1
				r.improve(result)
			}
		}
	}
	if best2 >= 0 && evaluated[best2].single.Closeness > result.Closeness {
		result = evaluated[best2].single
		r.improve(result)
	}
	return result
}

func oracleUnionSet(a, b map[graph.NodeID]bool) map[graph.NodeID]bool {
	out := make(map[graph.NodeID]bool, len(a)+len(b))
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
	return out
}
