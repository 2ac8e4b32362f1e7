package chase

import "sort"

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

// beamSearch runs one beam level at a time in two phases:
//
//  1. claim — walk the frontier in order, expand each state, and
//     screen, claim and evaluate up to beam steps per state;
//  2. commit — build the children in claim order (best-list offers,
//     lineage, Stats.States, beam eviction).
//
// No claim decision reads a same-level evaluation result: the level's
// claims are those of its frontier alone, and what a level commits
// decides only the next frontier.
func (w *Why) beamSearch(beam int, random bool) Answer {
	if beam < 1 {
		beam = 1
	}
	r := w.startRun()
	defer r.end()

	root, best := r.rootState(1)
	visited := map[string]bool{w.Q.Key(): true}
	frontier := []*state{root}

	for len(frontier) > 0 {
		// Phase 1 — claim. Each candidate claims its step, then is
		// evaluated at once.
		var cands []step
	claim:
		for _, s := range frontier {
			if !r.more() {
				break
			}
			var pool []scoredOp
			if random {
				// Not skipped for a state that can afford nothing: building
				// the pool draws from w.rng, and a skipped call would shift
				// every later draw.
				pool = w.GenRandom(s.q, s.seq.Targets(), w.Cfg.Budget-s.cost)
			} else {
				pool = w.expand(s, true, true, beam)
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
				st, ok := w.screen(s, op, visited)
				if !ok {
					continue
				}
				if !r.claimStep(&st, visited) {
					break claim
				}
				w.evaluateStep(&st)
				expanded++
				cands = append(cands, st)
			}
		}

		// Phase 2 — commit in claim order.
		var children []*state
		for i := range cands {
			s2 := w.child(&cands[i], 0)
			if best.offer(cands[i].ans) {
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
