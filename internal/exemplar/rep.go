package exemplar

import (
	"math"
	"slices"

	"wqe/internal/graph"
)

// Eval is a compiled exemplar evaluator over one graph. Construction
// finds all tuple-pattern matches once, reading the candidates off the
// graph's value-code postings where the patterns allow it; afterwards
// rep computations over arbitrary node sets (Lemma 2.2) are cheap.
//
// The matches are kept as columns in ascending node order: node[i]
// matches the tuple patterns whose bits are set in mask[i] (bit t ⇔
// v ~ t_t), cl[i] is cl(v, E), the max of cl(v, t) over them, and
// inRep[i] reports node[i] ∈ rep(E, V). A node is looked up by binary
// search, and a node set is a []bool over the column positions of its
// matches.
type Eval struct {
	G    *graph.Graph
	E    *Exemplar
	Opts Options

	binds map[string]binding
	node  []graph.NodeID
	mask  []uint64
	cl    []float64
	inRep []bool
	nRep  int
}

// NewEval validates e and compiles it against g. The number of tuple
// patterns is limited to 64 (a bitmask width; the paper's workloads use
// at most 25).
func NewEval(g *graph.Graph, e *Exemplar, opts Options) (*Eval, error) {
	ev, patterns, err := newEval(g, e, opts)
	if err != nil {
		return nil, err
	}
	if cands, ok := candidates(g, patterns, opts.Theta); ok {
		for _, c := range cands {
			ev.score(patterns, c.v, c.pats)
		}
	} else {
		ev.scan(patterns)
	}
	ev.fillRep()
	return ev, nil
}

// newEval validates e and compiles its tuple patterns against g,
// returning an Eval whose columns are still to be filled: by score, in
// ascending node order, then fillRep.
func newEval(g *graph.Graph, e *Exemplar, opts Options) (*Eval, []compiledPattern, error) {
	if err := e.Validate(); err != nil {
		return nil, nil, err
	}
	binds, err := e.bindings()
	if err != nil {
		return nil, nil, err
	}
	if len(e.Tuples) > 64 {
		return nil, nil, errTooManyTuples
	}
	patterns := make([]compiledPattern, len(e.Tuples))
	for ti, t := range e.Tuples {
		patterns[ti] = compilePattern(g, t)
	}
	return &Eval{G: g, E: e, Opts: opts, binds: binds}, patterns, nil
}

type evalError string

func (e evalError) Error() string { return string(e) }

const errTooManyTuples = evalError("exemplar: more than 64 tuple patterns")

// scan scores every node of the graph against every pattern.
func (ev *Eval) scan(patterns []compiledPattern) {
	for v := range ev.G.NumNodes() {
		ev.score(patterns, graph.NodeID(v), ^uint64(0))
	}
}

// score appends v to the match columns if it matches at least one of
// the patterns whose bits are set in pats; the caller vouches that v
// matches none of the others. Nodes must come in ascending order. With
// the default θ = 1 matches are exact; with θ < 1 they are similarity
// matches.
func (ev *Eval) score(patterns []compiledPattern, v graph.NodeID, pats uint64) {
	var mask uint64
	best := 0.0
	for ti, p := range patterns {
		if pats&(1<<uint(ti)) == 0 {
			continue
		}
		cl := p.closeness(ev.G, v)
		if cl >= ev.Opts.Theta {
			mask |= 1 << uint(ti)
			if cl > best {
				best = cl
			}
		}
	}
	if mask != 0 {
		ev.node = append(ev.node, v)
		ev.mask = append(ev.mask, mask)
		ev.cl = append(ev.cl, best)
	}
}

// fillRep computes rep(E, V) over the match columns.
func (ev *Eval) fillRep() {
	all := make([]int32, len(ev.node))
	for i := range all {
		all[i] = int32(i)
	}
	kept, ok := ev.repOver(all)
	if !ok {
		kept = make([]bool, len(all))
	}
	ev.inRep = kept
	for _, in := range kept {
		if in {
			ev.nRep++
		}
	}
}

// candidate is a node that may match some tuple pattern, and the
// patterns it may match: bit t of pats for pattern t.
type candidate struct {
	v    graph.NodeID
	pats uint64
}

// candidates returns, ascending, a superset of the nodes matching some
// pattern at threshold theta: the postings of one code range per pattern
// (compiledPattern.bound), each node with the patterns whose range holds
// it — a node outside a pattern's range is below theta on it. It reports
// false, and every node must be scored, when some pattern has no such
// range or the ranges together hold no fewer nodes than the graph.
func candidates(g *graph.Graph, patterns []compiledPattern, theta float64) ([]candidate, bool) {
	codes := g.Codes()
	type run struct {
		lo, hi int32
		pats   uint64
	}
	var runs []run // distinct and non-empty: rows often repeat a value
	total := 0
	for ti, p := range patterns {
		lo, hi, ok := p.bound(codes, theta)
		if !ok {
			return nil, false
		}
		if lo > hi {
			continue
		}
		if k := slices.IndexFunc(runs, func(r run) bool { return r.lo == lo && r.hi == hi }); k >= 0 {
			runs[k].pats |= 1 << uint(ti)
			continue
		}
		runs = append(runs, run{lo, hi, 1 << uint(ti)})
		total += len(codes.Postings(lo, hi))
	}
	if total >= g.NumNodes() {
		return nil, false
	}
	// Sort the nodes with their run's index in the low six bits (there
	// are at most 64 runs), then fold each node's runs into one entry.
	keys := make([]uint64, 0, total)
	for k, r := range runs {
		for _, v := range codes.Postings(r.lo, r.hi) {
			keys = append(keys, uint64(v)<<6|uint64(k))
		}
	}
	slices.Sort(keys)
	out := make([]candidate, 0, len(keys))
	for _, key := range keys {
		v, pats := graph.NodeID(key>>6), runs[key&63].pats
		if n := len(out); n > 0 && out[n-1].v == v {
			out[n-1].pats |= pats
			continue
		}
		out = append(out, candidate{v, pats})
	}
	return out, true
}

// find returns v's position in the match columns, if v matches.
func (ev *Eval) find(v graph.NodeID) (int, bool) {
	return slices.BinarySearch(ev.node, v)
}

// repCl returns cl(v, E) when v ∈ rep(E, V).
func (ev *Eval) repCl(v graph.NodeID) (float64, bool) {
	if i, ok := ev.find(v); ok && ev.inRep[i] {
		return ev.cl[i], true
	}
	return 0, false
}

// Matches reports v ~ t_i for some i (before constraint enforcement).
func (ev *Eval) Matches(v graph.NodeID) bool {
	_, ok := ev.find(v)
	return ok
}

// InRep reports whether v ∈ rep(E, V).
func (ev *Eval) InRep(v graph.NodeID) bool {
	_, ok := ev.repCl(v)
	return ok
}

// Cl returns cl(v, E), the closeness of v to the exemplar (0 when v
// matches no tuple pattern).
func (ev *Eval) Cl(v graph.NodeID) float64 {
	if i, ok := ev.find(v); ok {
		return ev.cl[i]
	}
	return 0
}

// RepNodes returns rep(E, V) as a sorted slice.
func (ev *Eval) RepNodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, ev.nRep)
	for i, in := range ev.inRep {
		if in {
			out = append(out, ev.node[i])
		}
	}
	return out
}

// Nontrivial reports rep(E, V) ≠ ∅ (§2.2: only nontrivial exemplars
// admit meaningful Why-questions).
func (ev *Eval) Nontrivial() bool { return ev.nRep > 0 }

// SatisfiedBy reports V_C ⊨ E for an arbitrary node set: rep(E, V_C) is
// nonempty, i.e. some subset of V_C matches every tuple pattern and
// satisfies every constraint (Lemma 2.2).
func (ev *Eval) SatisfiedBy(nodes []graph.NodeID) bool {
	at := make([]int32, 0, len(nodes))
	for _, v := range nodes {
		if i, ok := ev.find(v); ok {
			at = append(at, int32(i))
		}
	}
	slices.Sort(at) // a no-op on an answer, which is ascending
	_, ok := ev.repOver(slices.Compact(at))
	return ok
}

// repOver computes rep(E, U) for the matches U at the column positions
// at, ascending and without repeats. It returns, per entry of at,
// whether the maximal satisfying subset keeps it, and whether that
// subset satisfies E at all (every tuple pattern represented).
//
// Constraint enforcement removes violating nodes to the greatest
// fixpoint. Variable equality literals additionally pick the value
// class retaining the most nodes (documented interpretation of
// maximality, DESIGN.md §6). Every removal depends on values only, so
// the walk order over at decides nothing.
func (ev *Eval) repOver(at []int32) ([]bool, bool) {
	if len(at) == 0 {
		return nil, false
	}
	active := make([]bool, len(at))
	for k := range active {
		active[k] = true
	}

	for changed := true; changed; {
		changed = false
		for _, c := range ev.E.Constraints {
			lb := ev.binds[c.Left]
			if !c.IsVar {
				// Constant literal: every node matching the bound tuple
				// must satisfy v.A op c.
				bit := uint64(1) << uint(lb.tuple)
				for k, i := range at {
					if !active[k] || ev.mask[i]&bit == 0 {
						continue
					}
					val, ok := ev.G.Attr(ev.node[i], lb.attr)
					if !ok || !c.Op.Holds(val, c.Val) {
						active[k] = false
						changed = true
					}
				}
				continue
			}
			rb := ev.binds[c.Right]
			if c.Op == graph.EQ {
				if ev.enforceEquality(at, active, lb, rb) {
					changed = true
				}
				continue
			}
			if ev.enforceInequality(at, active, c.Op, lb, rb) {
				changed = true
			}
		}
	}

	// V_C ⊨ T: every tuple pattern must keep at least one match.
	var covered uint64
	for k, i := range at {
		if active[k] {
			covered |= ev.mask[i]
		}
	}
	if covered != uint64(1)<<uint(len(ev.E.Tuples))-1 {
		return nil, false
	}
	return active, true
}

// enforceEquality handles x = y between variables bound at (lb) and
// (rb): all pairs across the two groups must agree on the bound
// attributes, so all group members share one value. We keep the value
// class retaining the most nodes. Returns whether nodes were removed.
func (ev *Eval) enforceEquality(at []int32, active []bool, lb, rb binding) bool {
	type member struct {
		k    int // position in at
		val  graph.Value
		key  string // val's key: its value class
		ok   bool
		both bool // member of both groups (must agree with itself too)
	}
	var members []member
	var keys []string // the value classes of the ok members, one entry per member
	for k, i := range at {
		if !active[k] {
			continue
		}
		v := ev.node[i]
		l := ev.mask[i]&(1<<uint(lb.tuple)) != 0
		r := ev.mask[i]&(1<<uint(rb.tuple)) != 0
		if !l && !r {
			continue
		}
		var vals []graph.Value
		if l {
			if val, ok := ev.G.Attr(v, lb.attr); ok {
				vals = append(vals, val)
			} else {
				members = append(members, member{k: k, ok: false})
				continue
			}
		}
		if r {
			if val, ok := ev.G.Attr(v, rb.attr); ok {
				vals = append(vals, val)
			} else {
				members = append(members, member{k: k, ok: false})
				continue
			}
		}
		// A node in both groups must carry equal values itself.
		if len(vals) == 2 && !vals[0].Equal(vals[1]) {
			members = append(members, member{k: k, ok: false})
			continue
		}
		m := member{k: k, val: vals[0], key: string(vals[0].AppendKey(nil)), ok: true, both: len(vals) == 2}
		members = append(members, m)
		keys = append(keys, m.key)
	}
	if len(members) == 0 {
		return false
	}
	// Pick the value class with the most members (ties: smallest key, for
	// determinism): the longest run of the sorted keys, the first of the
	// longest.
	slices.Sort(keys)
	bestKey, most := "", 0
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		if j-i > most {
			bestKey, most = keys[i], j-i
		}
		i = j
	}
	var best graph.Value // a member value of the class: members of one class carry one value
	for _, m := range members {
		if m.ok && m.key == bestKey {
			best = m.val
			break
		}
	}
	removed := false
	for _, m := range members {
		if !m.ok || !m.val.Equal(best) {
			if active[m.k] {
				active[m.k] = false
				removed = true
			}
		}
	}
	return removed
}

// enforceInequality handles x op y with op ∈ {<, ≤, >, ≥}: every node
// of the left group needs a partner in the right group satisfying
// v.A op v'.A', and symmetrically. One pass of removals; the caller
// iterates to the fixpoint.
//
// Existence of a partner only depends on the other group's extreme
// value (its minimum for >/≥, maximum for </≤), with the runner-up
// covering the self-partnering case, so each pass is linear — the
// naive pairwise check would make Lemma 2.2's quadratic bound tight on
// large groups.
func (ev *Eval) enforceInequality(at []int32, active []bool, op graph.Op, lb, rb binding) bool {
	type member struct {
		k   int // position in at
		val graph.Value
		has bool
	}
	collect := func(b binding) []member {
		var out []member
		for k, i := range at {
			if !active[k] || ev.mask[i]&(1<<uint(b.tuple)) == 0 {
				continue
			}
			val, ok := ev.G.Attr(ev.node[i], b.attr)
			out = append(out, member{k, val, ok})
		}
		return out
	}
	// extremes returns the two best partner witnesses of a group: the
	// members whose values are most likely to satisfy the other side
	// (minimum for >/≥, maximum for </≤); the runner-up covers the case
	// where the best witness is the probing node itself. Tied witnesses
	// carry equal values, so which of them comes first decides nothing.
	type witness struct {
		k   int
		val graph.Value
		ok  bool
	}
	extremes := func(ms []member, wantMin bool) (first, second witness) {
		for _, m := range ms {
			if !m.has {
				continue
			}
			better := func(a graph.Value, w witness) bool {
				if !w.ok {
					return true
				}
				if wantMin {
					return a.Compare(w.val) < 0
				}
				return a.Compare(w.val) > 0
			}
			switch {
			case better(m.val, first):
				second = first
				first = witness{m.k, m.val, true}
			case better(m.val, second):
				second = witness{m.k, m.val, true}
			}
		}
		return
	}
	removed := false
	prune := func(ms []member, o graph.Op, w1, w2 witness) {
		for _, m := range ms {
			if !active[m.k] {
				continue
			}
			if !m.has {
				active[m.k] = false
				removed = true
				continue
			}
			w := w1
			if w.ok && w.k == m.k {
				w = w2
			}
			if !w.ok || !o.Holds(m.val, w.val) {
				active[m.k] = false
				removed = true
			}
		}
	}

	wantMinRight := op == graph.GT || op == graph.GE // v op w favors small w
	r1, r2 := extremes(collect(rb), wantMinRight)
	prune(collect(lb), op, r1, r2)

	// Re-collect after the left pass: removed nodes must not witness.
	flip := op.Flip()
	wantMinLeft := flip == graph.GT || flip == graph.GE
	l1, l2 := extremes(collect(lb), wantMinLeft)
	prune(collect(rb), flip, l1, l2)
	return removed
}

// Closeness computes cl(answer, E) = (Σ_{v∈RM} cl(v,E) − λ·|IM|) /
// nFocusCands, where RM/IM partition the answer by membership in the
// global rep(E, V) (§3). nFocusCands is |V_{u_o}| of the original query
// and stays fixed across a chase.
func (ev *Eval) Closeness(answer []graph.NodeID, nFocusCands int) float64 {
	if nFocusCands <= 0 {
		return 0
	}
	var gain float64
	irrelevant := 0
	for _, v := range answer {
		if cl, ok := ev.repCl(v); ok {
			gain += cl
		} else {
			irrelevant++
		}
	}
	return (gain - ev.Opts.Lambda*float64(irrelevant)) / float64(nFocusCands)
}

// ClPlus computes cl⁺(answer, E), the relevant-match-only upper bound of
// Lemma 5.5 used for pruning: Σ_{v∈RM} cl(v,E) / nFocusCands.
func (ev *Eval) ClPlus(answer []graph.NodeID, nFocusCands int) float64 {
	if nFocusCands <= 0 {
		return 0
	}
	var gain float64
	for _, v := range answer {
		if cl, ok := ev.repCl(v); ok {
			gain += cl
		}
	}
	return gain / float64(nFocusCands)
}

// RepAmong reports, per node of the ascending cands, membership in
// rep(E, V), and returns ClStar(cands) beside it: one walk of rep(E, V)
// that gallops through cands, summing in the order ClStar does.
func (ev *Eval) RepAmong(cands []graph.NodeID) (in []bool, clStar float64) {
	in = make([]bool, len(cands))
	if len(cands) == 0 {
		return in, 0
	}
	var gain float64
	at := 0 // cands[:at] lie below every rep node still to come
	for i, v := range ev.node {
		if !ev.inRep[i] {
			continue
		}
		at = gallop(cands, at, v)
		if at == len(cands) {
			break
		}
		if cands[at] == v {
			in[at] = true
			gain += ev.cl[i]
		}
	}
	return in, gain / float64(len(cands))
}

// gallop returns the first index at or after from of a value not below
// v in the ascending s: doubling steps from from, then a binary search
// of the last step, so a walk of ascending v costs the log of each gap.
func gallop(s []graph.NodeID, from int, v graph.NodeID) int {
	step := 1
	for from+step < len(s) && s[from+step] < v {
		from += step
		step *= 2
	}
	k, _ := slices.BinarySearch(s[from:min(from+step, len(s))], v)
	return from + k
}

// ClStar computes the theoretically optimal closeness cl* =
// Σ_{v ∈ rep(E,V) ∩ cands} cl(v,E) / |cands| achievable by any rewrite
// whose answers stay within the focus candidate pool.
func (ev *Eval) ClStar(cands []graph.NodeID) float64 {
	if len(cands) == 0 {
		return 0
	}
	var gain float64
	for _, v := range cands {
		if cl, ok := ev.repCl(v); ok {
			gain += cl
		}
	}
	return gain / float64(len(cands))
}

// Infinity guards: closeness values are finite by construction; this
// assertion helps catch NaNs from bad λ/θ configurations in tests.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
