package chase

import (
	"sort"

	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// AnsHeu is the faster tunable heuristic of §5.5: a breadth-first beam
// search with beam size k. Each state expands through its top-k picky
// operators; after every level only the k best rewrites survive. It
// preserves anytime behavior but has no optimality guarantee.
func (w *Why) AnsHeu(beam int) Answer {
	return w.beamSearch(beam, false)
}

// AnsHeuB is the paper's ablation of AnsHeu that replaces picky
// operator generation with random operator selection (Exp-3): same
// beam mechanics, uninformed operators.
func (w *Why) AnsHeuB(beam int) Answer {
	return w.beamSearch(beam, true)
}

// beamCand is one claimed beam expansion: the rewrite to evaluate plus
// the slots the evaluation phase fills in. Claiming (operator choice,
// budget check, visited marking) is sequential; only the evaluation
// runs on worker goroutines.
type beamCand struct {
	parent *state
	op     scoredOp
	q2     *query.Query
	seq2   ops.Sequence
	key    string // rewrite key (AnsW speculation indexes spec by it)
	ans    Answer
	res    *match.Result
}

// beamSearch runs one beam level at a time in three phases:
//
//  1. claim — walk the frontier in order, generate each state's
//     operator pool, and claim up to beam candidates per state exactly
//     as the sequential search would (budget and visited checks, and
//     the run's step claims, all happen here, per candidate);
//  2. evaluate — fan the claimed candidates' Match calls out over the
//     worker pool;
//  3. commit — fold results back in claim order (best-list offers,
//     diff lineage, Stats.States, beam eviction).
//
// Because no claim decision reads a same-level evaluation result, the
// output is byte-identical for every Config.Workers setting.
func (w *Why) beamSearch(beam int, random bool) Answer {
	if beam < 1 {
		beam = 1
	}
	r := w.startRun()
	defer r.end()

	root, best := r.rootState(1)
	visited := map[string]bool{w.Q.Key(): true}
	frontier := []*state{root}
	workers := w.workers()
	// pool is one state's operators, dropped once it has claimed: the
	// claims copy what they keep.
	var pool []scoredOp

	for len(frontier) > 0 {
		// Phase 1 — claim. Each candidate claims its step before the
		// level is evaluated: MaxSteps cuts where a sequential run would.
		var cands []*beamCand
	claim:
		for _, s := range frontier {
			if !r.more() {
				break
			}
			budgetLeft := w.Cfg.Budget - s.cost

			if random {
				// Not skipped for a state that can afford nothing: building
				// the pool draws from w.rng, and a skipped call would shift
				// every later draw.
				pool = w.GenRandom(s.q, opTargets(s.seq), budgetLeft)
			} else {
				if !expandable(budgetLeft) {
					continue
				}
				used := opTargets(s.seq)
				rm, im, rc, _ := w.partition(s.res, &w.scratch().parts)
				// Relaxations come first so that, on pickiness ties, the
				// beam follows the normal form (relax before refine);
				// refinements with strictly higher pickiness still win.
				pool = pool[:0]
				if !s.refineOnly {
					pool = append(pool, capPerClass(w.genRelax(s.q, rc, used, budgetLeft), beam)...)
				}
				pool = append(pool, capPerClass(w.genRefine(s.q, rm, im, used, budgetLeft), beam)...)
				sortScored(pool)
			}

			expanded := 0
			for _, op := range pool {
				if expanded >= beam {
					break
				}
				// Polled per candidate, not just per state: one state's
				// pool can blow far past TimeLimit, and a cancelled chase
				// must stop mid-beam, not finish the level.
				if !r.more() {
					break claim
				}
				if s.cost+op.Op.Cost(w.G) > w.Cfg.Budget+1e-9 {
					continue
				}
				q2, err := op.Op.Apply(s.q)
				if err != nil {
					continue // generator emitted an op that no longer fits s.q
				}
				key := q2.Key()
				if visited[key] {
					continue
				}
				if !r.claim() {
					break claim
				}
				visited[key] = true
				expanded++
				cands = append(cands, &beamCand{
					parent: s,
					op:     op,
					q2:     q2,
					seq2:   append(append(ops.Sequence{}, s.seq...), op.Op),
				})
			}
		}

		// Phase 2 — evaluate the whole level concurrently.
		w.forEach(workers, len(cands), func(i int) {
			c := cands[i]
			c.ans, c.res = w.evaluate(c.parent.res, c.q2, c.seq2)
		})

		// Phase 3 — commit in claim order.
		var children []*state
		for _, c := range cands {
			s, ans2, res2 := c.parent, c.ans, c.res
			s2 := &state{
				q:          c.q2,
				seq:        c.seq2,
				cost:       ans2.Cost,
				res:        res2,
				cl:         ans2.Closeness,
				clPlus:     w.ClPlus(res2.Answer),
				sat:        ans2.Satisfied,
				refineOnly: s.refineOnly || c.op.Op.Kind.IsRefine(),
			}
			s2.diff = append(append([]DiffEntry{}, s.diff...),
				w.diffEntry(c.op.Op, c.op.PickyEdge, s.res.Answer, res2.Answer))
			ans2.Diff = s2.diff
			if best.offer(ans2) {
				r.improve(best.list[0])
			}
			children = append(children, s2)
			w.Stats.States++
		}
		if best.full() && best.kthCl() >= w.ClStar-1e-12 {
			break
		}
		// Beam eviction: keep the k best rewrites. Satisfying rewrites
		// rank by closeness; non-satisfying ones rank by their potential
		// cl⁺ — a rewrite whose answers already include relevant matches
		// beats an empty answer with nominal closeness 0, since only
		// satisfying rewrites answer the Why-question at all.
		score := func(s *state) float64 {
			if s.sat {
				return 1 + s.cl
			}
			return s.clPlus + s.cl/1e3
		}
		sort.SliceStable(children, func(i, j int) bool {
			return score(children[i]) > score(children[j])
		})
		if len(children) > beam {
			children = children[:beam]
		}
		frontier = children
	}
	return best.results()[0]
}
