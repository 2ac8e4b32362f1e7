package chase

import (
	"math/bits"

	"wqe/internal/match"
	"wqe/internal/ops"
)

// ApxWhyM answers Why-Many questions (§6.1, Fig 9): refine Q with
// refinement-only operators of total cost ≤ B so that as many
// irrelevant matches as possible disappear, maximizing closeness. It is
// a greedy budgeted weighted set-cover over seed operators (SeedRf) and
// carries the fixed-parameter ½(1−1/e) approximation of Theorem 6.1.
func (w *Why) ApxWhyM() Answer {
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

	// Cover sets are bitsets over the root answer: bit i stands for
	// root[i]. The answer is ascending, so bit order is node order.
	root := rootRes.Answer
	words := (len(root) + 63) / 64
	inRep := make([]bool, len(root))
	rootCl := make([]float64, len(root))
	for i, v := range root {
		inRep[i], rootCl[i] = w.Eval.InRep(v), w.Eval.Cl(v)
	}
	type seed struct {
		op        ops.Op
		cost      float64
		removedIM []uint64
		removedRM []uint64
		single    Answer
	}
	// Exact per-seed coverage: evaluate Q ⊕ {o} once per seed, in seed
	// order, and record which irrelevant (and relevant) matches it
	// removes. This "ensures the removal of IM(o)" as the paper requires
	// of SeedRf.
	var evaluated []seed
	for _, s := range seeds {
		q2, err := s.Op.Apply(w.Q)
		if err != nil {
			continue // seed op no longer fits Q
		}
		if !r.claim() {
			break
		}
		single, res := w.evaluate(rootRes, q2, ops.Sequence{s.Op})
		sd := seed{op: s.Op, cost: s.Op.Cost(w.G), single: single,
			removedIM: make([]uint64, words), removedRM: make([]uint64, words)}
		covers := false
		ans, j := res.Answer, 0
		for i, v := range root {
			for j < len(ans) && ans[j] < v {
				j++
			}
			if j < len(ans) && ans[j] == v {
				continue
			}
			if inRep[i] {
				sd.removedRM[i/64] |= 1 << (i % 64)
			} else {
				sd.removedIM[i/64] |= 1 << (i % 64)
				covers = true
			}
		}
		if !covers {
			continue // covers nothing
		}
		evaluated = append(evaluated, sd)
	}
	if len(evaluated) == 0 {
		return rootAns
	}

	nf := float64(len(w.FocusCands))
	weight := func(im, rm []uint64) float64 {
		// Sum closeness in node order, the bit order: float addition
		// rounds differently under different orders, and the greedy
		// selection below compares these sums.
		n := 0
		var loss float64
		for k := range im {
			n += bits.OnesCount64(im[k])
			for b := rm[k]; b != 0; b &= b - 1 {
				loss += rootCl[k*64+bits.TrailingZeros64(b)]
			}
		}
		return (w.Cfg.Lambda*float64(n) - loss) / nf
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
	coveredIM, coveredRM := make([]uint64, words), make([]uint64, words)
	im2, rm2 := make([]uint64, words), make([]uint64, words)
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
			for k := range im2 {
				im2[k] = coveredIM[k] | s.removedIM[k]
				rm2[k] = coveredRM[k] | s.removedRM[k]
			}
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
		for k := range coveredIM {
			coveredIM[k] |= s.removedIM[k]
			coveredRM[k] |= s.removedRM[k]
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

// seedRf produces the Why-Many seed operator set: the picky refinement
// pool plus neighborhood-derived AddE/AddL/RfL operators (Appendix C).
// GenRefine already explores the B-hop neighborhoods of relevant
// matches for AddE and value-based AddL/RfL, so it serves as SeedRf
// with a wider cap.
func (w *Why) seedRf(res *match.Result) []scoredOp {
	pool := w.GenRefine(res, nil, w.Cfg.Budget)
	const maxSeeds = 48
	if len(pool) > maxSeeds {
		pool = pool[:maxSeeds]
	}
	return pool
}
