package exemplar

import (
	"sort"

	"wqe/internal/graph"
)

// nodeMatch records which tuple patterns a node matches (vsim) and its
// closeness cl(v, E) = max over matched tuples of cl(v, t).
type nodeMatch struct {
	mask uint64 // bit i set ⇔ v ~ t_i
	cl   float64
}

// OracleEval is Eval as it stood before its matches became ascending
// columns, every node set a map: verbatim apart from its name and its
// lint directives, which the linter, skipping test files, never reads. It
// is the reference rep_equiv_test.go holds Eval to, bit for bit.
type OracleEval struct {
	G    *graph.Graph
	E    *Exemplar
	Opts Options

	binds map[string]binding
	match map[graph.NodeID]nodeMatch
	rep   map[graph.NodeID]float64 // rep(E, V) with cl values
}

// NewOracleEval is NewEval's former self.
func NewOracleEval(g *graph.Graph, e *Exemplar, opts Options) (*OracleEval, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	binds, err := e.bindings()
	if err != nil {
		return nil, err
	}
	if len(e.Tuples) > 64 {
		return nil, errTooManyTuples
	}
	ev := &OracleEval{G: g, E: e, Opts: opts, binds: binds}
	ev.scan()
	set, ok := ev.repOver(nil)
	ev.rep = map[graph.NodeID]float64{}
	if ok {
		for v := range set {
			ev.rep[v] = ev.match[v].cl
		}
	}
	return ev, nil
}

// scan finds every node matching at least one tuple pattern. With the
// default θ = 1 this enumerates exact matches; with θ < 1 it scores
// similarity matches.
func (ev *OracleEval) scan() {
	ev.match = map[graph.NodeID]nodeMatch{}
	patterns := make([]compiledPattern, len(ev.E.Tuples))
	for ti, t := range ev.E.Tuples {
		patterns[ti] = compilePattern(ev.G, t)
	}
	n := ev.G.NumNodes()
	for i := 0; i < n; i++ {
		v := graph.NodeID(i)
		var mask uint64
		best := 0.0
		for ti, p := range patterns {
			cl := p.closeness(ev.G, v)
			if cl >= ev.Opts.Theta {
				mask |= 1 << uint(ti)
				if cl > best {
					best = cl
				}
			}
		}
		if mask != 0 {
			ev.match[v] = nodeMatch{mask: mask, cl: best}
		}
	}
}

// Matches reports v ~ t_i for some i (before constraint enforcement).
func (ev *OracleEval) Matches(v graph.NodeID) bool {
	_, ok := ev.match[v]
	return ok
}

// InRep reports whether v ∈ rep(E, V).
func (ev *OracleEval) InRep(v graph.NodeID) bool {
	_, ok := ev.rep[v]
	return ok
}

// Cl returns cl(v, E), the closeness of v to the exemplar (0 when v
// matches no tuple pattern).
func (ev *OracleEval) Cl(v graph.NodeID) float64 {
	if m, ok := ev.match[v]; ok {
		return m.cl
	}
	return 0
}

// RepNodes returns rep(E, V) as a sorted slice.
func (ev *OracleEval) RepNodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(ev.rep))
	for v := range ev.rep {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Nontrivial reports rep(E, V) ≠ ∅ (§2.2: only nontrivial exemplars
// admit meaningful Why-questions).
func (ev *OracleEval) Nontrivial() bool { return len(ev.rep) > 0 }

// SatisfiedBy reports V_C ⊨ E for an arbitrary node set: rep(E, V_C) is
// nonempty, i.e. some subset of V_C matches every tuple pattern and
// satisfies every constraint (Lemma 2.2).
func (ev *OracleEval) SatisfiedBy(nodes []graph.NodeID) bool {
	restrict := make(map[graph.NodeID]bool, len(nodes))
	for _, v := range nodes {
		restrict[v] = true
	}
	_, ok := ev.repOver(restrict)
	return ok
}

// repOver computes rep(E, U) where U is the restriction set (nil means
// all of V). It returns the maximal satisfying subset and whether it is
// a satisfying set at all (every tuple pattern represented).
//
// Constraint enforcement removes violating nodes to the greatest
// fixpoint. Variable equality literals additionally pick the value
// class retaining the most nodes (documented interpretation of
// maximality, DESIGN.md §6).
func (ev *OracleEval) repOver(restrict map[graph.NodeID]bool) (map[graph.NodeID]bool, bool) {
	active := make(map[graph.NodeID]bool)
	for v := range ev.match {
		if restrict == nil || restrict[v] {
			active[v] = true
		}
	}
	if len(active) == 0 {
		return nil, false
	}

	inGroup := func(v graph.NodeID, ti int) bool {
		return active[v] && ev.match[v].mask&(1<<uint(ti)) != 0
	}
	groupNodes := func(ti int) []graph.NodeID {
		var out []graph.NodeID
		for v := range active {
			if inGroup(v, ti) {
				out = append(out, v)
			}
		}
		return out
	}

	for changed := true; changed; {
		changed = false
		for _, c := range ev.E.Constraints {
			lb := ev.binds[c.Left]
			if !c.IsVar {
				// Constant literal: every node matching the bound tuple
				// must satisfy v.A op c.
				for _, v := range groupNodes(lb.tuple) {
					val, ok := ev.G.Attr(v, lb.attr)
					if !ok || !c.Op.Holds(val, c.Val) {
						delete(active, v)
						changed = true
					}
				}
				continue
			}
			rb := ev.binds[c.Right]
			if c.Op == graph.EQ {
				if ev.enforceEquality(active, lb, rb) {
					changed = true
				}
				continue
			}
			if ev.enforceInequality(active, c.Op, lb, rb) {
				changed = true
			}
		}
	}

	// V_C ⊨ T: every tuple pattern must keep at least one match.
	for ti := range ev.E.Tuples {
		found := false
		for v := range active {
			if inGroup(v, ti) {
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return active, true
}

// enforceEquality handles x = y between variables bound at (lb) and
// (rb): all pairs across the two groups must agree on the bound
// attributes, so all group members share one value. We keep the value
// class retaining the most nodes. Returns whether nodes were removed.
func (ev *OracleEval) enforceEquality(active map[graph.NodeID]bool, lb, rb binding) bool {
	type member struct {
		v    graph.NodeID
		val  graph.Value
		key  string // val's key: its value class
		ok   bool
		both bool // member of both groups (must agree with itself too)
	}
	var members []member
	count := map[string]int{}
	// Per-member decisions below depend only on values; the winning value
	// class breaks ties on its key.
	for v := range active {
		l := ev.match[v].mask&(1<<uint(lb.tuple)) != 0
		r := ev.match[v].mask&(1<<uint(rb.tuple)) != 0
		if !l && !r {
			continue
		}
		var vals []graph.Value
		if l {
			if val, ok := ev.G.Attr(v, lb.attr); ok {
				vals = append(vals, val)
			} else {
				members = append(members, member{v: v, ok: false})
				continue
			}
		}
		if r {
			if val, ok := ev.G.Attr(v, rb.attr); ok {
				vals = append(vals, val)
			} else {
				members = append(members, member{v: v, ok: false})
				continue
			}
		}
		// A node in both groups must carry equal values itself.
		if len(vals) == 2 && !vals[0].Equal(vals[1]) {
			members = append(members, member{v: v, ok: false})
			continue
		}
		m := member{v: v, val: vals[0], key: string(vals[0].AppendKey(nil)), ok: true, both: len(vals) == 2}
		members = append(members, m)
		count[m.key]++
	}
	if len(members) == 0 {
		return false
	}
	// Pick the value class with the most members (ties: smallest key, for
	// determinism).
	var best member
	for _, m := range members {
		if n, most := count[m.key], count[best.key]; m.ok && (n > most || n == most && m.key < best.key) {
			best = m
		}
	}
	removed := false
	for _, m := range members {
		if !m.ok || !m.val.Equal(best.val) {
			if active[m.v] {
				delete(active, m.v)
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
// Existence of a partner only depends on a few witnesses of the other
// group, with runners-up covering the self-partnering case, so each pass
// is linear — the naive pairwise check would make Lemma 2.2's quadratic
// bound tight on large groups.
func (ev *OracleEval) enforceInequality(active map[graph.NodeID]bool, op graph.Op, lb, rb binding) bool {
	type member struct {
		v   graph.NodeID
		val graph.Value
		has bool
	}
	collect := func(b binding) []member {
		var out []member
		// Tied extreme witnesses partner the same probes, so pruning
		// decisions depend only on values, not collection order.
		for v := range active {
			if ev.match[v].mask&(1<<uint(b.tuple)) == 0 {
				continue
			}
			val, ok := ev.G.Attr(v, b.attr)
			out = append(out, member{v, val, ok})
		}
		return out
	}
	// extremes returns a group's partner witnesses: per kind of value,
	// the two members whose values are most likely to satisfy the other
	// side (minimum for >/≥, maximum for </≤); the runner-up covers the
	// case where the best witness is the probing node itself.
	type witness struct {
		v   graph.NodeID
		val graph.Value
		ok  bool
	}
	type witnesses [2][2]witness // by kind: Number, String
	extremes := func(ms []member, wantMin bool) (ws witnesses) {
		for _, m := range ms {
			if !m.has {
				continue
			}
			better := func(w witness) bool {
				if !w.ok {
					return true
				}
				if wantMin {
					return m.val.Compare(w.val) < 0
				}
				return m.val.Compare(w.val) > 0
			}
			c := &ws[m.val.Kind]
			switch {
			case better(c[0]):
				c[1] = c[0]
				c[0] = witness{m.v, m.val, true}
			case better(c[1]):
				c[1] = witness{m.v, m.val, true}
			}
		}
		return
	}
	removed := false
	prune := func(ms []member, o graph.Op, ws *witnesses) {
	probe:
		for _, m := range ms {
			if !active[m.v] {
				continue
			}
			if m.has {
				for _, c := range ws {
					w := c[0]
					if w.ok && w.v == m.v {
						w = c[1]
					}
					if w.ok && o.Holds(m.val, w.val) {
						continue probe
					}
				}
			}
			delete(active, m.v)
			removed = true
		}
	}

	wantMinRight := op == graph.GT || op == graph.GE // v op w favors small w
	r := extremes(collect(rb), wantMinRight)
	prune(collect(lb), op, &r)

	// Re-collect after the left pass: removed nodes must not witness.
	flip := op.Flip()
	wantMinLeft := flip == graph.GT || flip == graph.GE
	l := extremes(collect(lb), wantMinLeft)
	prune(collect(rb), flip, &l)
	return removed
}

// Closeness computes cl(answer, E) = (Σ_{v∈RM} cl(v,E) − λ·|IM|) /
// nFocusCands, where RM/IM partition the answer by membership in the
// global rep(E, V) (§3). nFocusCands is |V_{u_o}| of the original query
// and stays fixed across a chase.
func (ev *OracleEval) Closeness(answer []graph.NodeID, nFocusCands int) float64 {
	if nFocusCands <= 0 {
		return 0
	}
	var gain float64
	irrelevant := 0
	for _, v := range answer {
		if cl, ok := ev.rep[v]; ok {
			gain += cl
		} else {
			irrelevant++
		}
	}
	return (gain - ev.Opts.Lambda*float64(irrelevant)) / float64(nFocusCands)
}

// ClPlus computes cl⁺(answer, E), the relevant-match-only upper bound of
// Lemma 5.5 used for pruning: Σ_{v∈RM} cl(v,E) / nFocusCands.
func (ev *OracleEval) ClPlus(answer []graph.NodeID, nFocusCands int) float64 {
	if nFocusCands <= 0 {
		return 0
	}
	var gain float64
	for _, v := range answer {
		if cl, ok := ev.rep[v]; ok {
			gain += cl
		}
	}
	return gain / float64(nFocusCands)
}

// ClStar computes the theoretically optimal closeness cl* =
// Σ_{v ∈ rep(E,V) ∩ cands} cl(v,E) / |cands| achievable by any rewrite
// whose answers stay within the focus candidate pool.
func (ev *OracleEval) ClStar(cands []graph.NodeID) float64 {
	if len(cands) == 0 {
		return 0
	}
	var gain float64
	for _, v := range cands {
		if cl, ok := ev.rep[v]; ok {
			gain += cl
		}
	}
	return gain / float64(len(cands))
}
