package match

import (
	"slices"
	"strconv"
	"sync"

	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/query"
)

// Matcher evaluates pattern queries over one graph. A non-nil Cache
// makes repeated evaluation of similar queries (the Q-Chase workload)
// incremental: structurally unchanged stars are reused. Match is safe
// for concurrent use: the cache serializes its own state, in-flight
// star builds are shared via singleflight, and everything else Match
// touches is read-only after construction (warm the graph's lazy
// caches first; chase.NewWhy does).
type Matcher struct {
	G     *graph.Graph
	Dist  distindex.Index
	Cache *Cache

	// keyPrefix is the per-graph cache-key prefix ("g<uid>|"), hoisted
	// out of the per-star key construction on the Match hot path.
	keyPrefix string

	// vpool recycles verifiers (and all their scratch: order, maps,
	// per-depth constraint buffers, the distance memo) across Match
	// calls, so the per-question beam loop stops allocating a fresh
	// working set for every rewrite it evaluates.
	vpool sync.Pool
}

// NewMatcher returns a matcher over g using the given distance oracle
// and an optional star-view cache (nil disables caching).
func NewMatcher(g *graph.Graph, dist distindex.Index, cache *Cache) *Matcher {
	m := &Matcher{
		G:     g,
		Dist:  dist,
		Cache: cache,
		// The graph uid keeps one cache safe to share across graphs.
		keyPrefix: "g" + strconv.FormatUint(g.UID(), 10) + "|",
	}
	m.vpool.New = func() interface{} { return &verifier{m: m} }
	return m
}

// StarInstance binds one star of the current query to its materialized
// table. The table may come from the cache and have been built from a
// structurally equal query whose edges were ordered differently; Cols
// maps the current star's edge positions to table columns.
type StarInstance struct {
	Star  *StarQuery
	Table *StarTable
	Cols  []int
}

// Result is one query evaluation: the query compiled, the star view
// used, the candidate sets the search enumerated from, and the answer
// Q(G) (the matches of the focus).
type Result struct {
	Query *query.Query
	// Pat is Query compiled against the matcher's graph, once, by
	// MatchFrom: every test of a node against the pattern reads it — the
	// matcher's, and those of whoever holds the result. It is read-only.
	Pat   query.Compiled
	Stars []StarInstance
	// Candidates, indexed by pattern node, holds the candidate set of
	// the focus and of each node that starts a component of the pattern
	// the focus is not in; every other node is enumerated from an
	// assigned neighbor (its star-table row, else a BFS ball), and its
	// entry is nil.
	Candidates [][]graph.NodeID
	Answer     []graph.NodeID // sorted
}

// Has reports whether v ∈ Q(G).
func (r *Result) Has(v graph.NodeID) bool {
	_, ok := slices.BinarySearch(r.Answer, v)
	return ok
}

// Match evaluates q: it decomposes q into star views, materializes (or
// fetches cached) star tables, prunes focus candidates to those
// supported by every star, and verifies each survivor with a
// backtracking search over the star tables (§5.2); BFS fills in only
// where no star column applies.
func (m *Matcher) Match(q *query.Query) *Result {
	return m.MatchFrom(nil, q)
}

// MatchFrom is Match for a query rewritten from one already evaluated —
// a Q-Chase state beside its parent's result. The result is Match(q)'s
// whatever parent is (nil included): the parent only spares work, and
// what may be taken from it is decided here, from the two queries (see
// deriveStarTable, focusCandidates). Parents are read, never written, so
// one may serve many concurrent calls. q is compiled here, once, into the
// result's Pat.
func (m *Matcher) MatchFrom(parent *Result, q *query.Query) *Result {
	res := &Result{
		Query:      q,
		Candidates: make([][]graph.NodeID, len(q.Nodes)),
	}
	res.Pat.Compile(m.G, q)
	res.Candidates[q.Focus] = focusCandidates(m.G, parent, res)

	var kb []byte
	for _, s := range decompose(q, res.Pat.Dist) {
		// A table the cache does not hold is the parent's, filtered, when
		// the parent has the star under looser literals; else built.
		compute := func() (*StarTable, bool) {
			if t := deriveStarTable(m.G, parent, res, s); t != nil {
				return t, true
			}
			return buildStarTable(m.G, res, s), true
		}
		var t *StarTable
		if m.Cache != nil {
			kb = s.AppendKey(append(kb[:0], m.keyPrefix...), q)
			// Singleflight build: concurrent misses on the same star key
			// share one materialization instead of racing duplicates.
			t, _ = m.Cache.GetOrCompute(string(kb), compute)
		} else {
			t, _ = compute()
		}
		res.Stars = append(res.Stars, StarInstance{
			Star:  s,
			Table: t,
			Cols:  columnMap(q, s, t),
		})
	}

	// Focus pool: the candidates under the current focus literals that
	// every star has at a focus position. The pool is ascending
	// (focusCandidates), as each table's focus list is, so one cursor per
	// table walks it forward, and the answer comes out ascending.
	pool := res.Candidates[q.Focus]
	v := m.vpool.Get().(*verifier)
	v.q, v.pat, v.cands, v.stars = q, &res.Pat, res.Candidates, res.Stars
	v.prepare()
	var verified []graph.NodeID
outer:
	for _, cand := range pool {
		for si, inst := range res.Stars {
			if !inst.Table.supportsFocusFrom(cand, &v.focusAt[si]) {
				continue outer
			}
		}
		if v.verify(cand) {
			verified = append(verified, cand)
		}
	}
	res.Answer = verified
	m.release(v)
	return res
}

// release returns a verifier to the pool, dropping every reference that
// would pin a query or result past the Match that made it; the slices
// and the memo themselves stay allocated for reuse.
func (m *Matcher) release(v *verifier) {
	v.q, v.pat, v.cands, v.stars = nil, nil, nil, nil
	m.vpool.Put(v)
}

// columnMap matches the current star's edges to the table's columns by
// structural signature. A table made for this very star (built or derived
// by this Match) has them in the star's order; for cached tables the
// signatures admit a perfect matching because the cache key is
// signature-derived.
func columnMap(q *query.Query, s *StarQuery, t *StarTable) []int {
	cols := make([]int, len(s.Edges))
	if t.Star == s {
		for i := range cols {
			cols[i] = i
		}
		return cols
	}
	used := make([]bool, len(t.ColSigs))
	for i, e := range s.Edges {
		sig := edgeSig(q, e)
		cols[i] = -1
		for c, csig := range t.ColSigs {
			if !used[c] && csig == sig {
				used[c] = true
				cols[i] = c
				break
			}
		}
	}
	return cols
}

// verifier runs the per-candidate backtracking search. Pattern nodes
// are visited in a BFS order from the focus so each new node is
// anchored by an already-assigned neighbor whenever the pattern is
// connected. Candidate enumeration reads star-table rows — the
// materialized, bound- and literal-filtered partner lists — and only
// falls back to BFS balls for edges no star column covers.
type verifier struct {
	m     *Matcher
	q     *query.Query
	pat   *query.Compiled // q's, the result's Pat
	cands [][]graph.NodeID
	stars []StarInstance
	order []query.NodeID
	// h is the assignment, -1 = unassigned. It doubles as the set of used
	// graph nodes (valuations are injective): patterns are a handful of
	// nodes, so a scan beats a map.
	h []graph.NodeID
	// colFor maps a pattern edge seen from one endpoint — index
	// 2*edge for its From node, 2*edge+1 for its To node — to the column
	// of the star centered there: the materialized partner list for that
	// edge anchored at a center match. star is -1 where no star has one.
	colFor []enumRef

	// seen is prepare's BFS visited set, reused across Match calls.
	seen []bool
	// focusAt holds, per star, Match's cursor into the star table's focus
	// list (StarTable.supportsFocusFrom).
	focusAt []int
	// cons holds one edge-constraint buffer per search depth: extend at
	// depth d fills cons[d] while the frames below it still hold theirs.
	cons [][]edgeConstraint
	// balls holds one ball per search depth, for extend's BFS fallback.
	balls [][]graph.NodeDist
	// dmemo caches Within verdicts per (source, target) node pair for
	// the duration of one Match. The backtracking search re-tests the
	// same pairs across candidates and depths; the memo answers repeats
	// without touching the distance oracle. See memoWithin for the
	// bound encoding.
	dmemo map[int64]int32
}

type enumRef struct {
	star int
	col  int
}

// colIndex is colFor's index for pattern edge e seen from its From node
// (out) or its To node.
func colIndex(e int, out bool) int {
	if out {
		return 2 * e
	}
	return 2*e + 1
}

func (v *verifier) prepare() {
	q := v.q
	seen := v.seen[:0]
	for range q.Nodes {
		seen = append(seen, false)
	}
	v.seen = seen
	// Isolated non-focus nodes pose no constraint (query.IsolatedIgnored)
	// and are excluded from the valuation entirely.
	for u := range q.Nodes {
		if q.IsolatedIgnored(query.NodeID(u)) {
			seen[u] = true
		}
	}
	v.order = append(v.order[:0], q.Focus)
	seen[q.Focus] = true
	for i := 0; i < len(v.order); i++ {
		for _, nb := range q.Neighbors(v.order[i]) {
			if !seen[nb] {
				seen[nb] = true
				v.order = append(v.order, nb)
			}
		}
		// When the BFS exhausts a component, continue from any unseen
		// node (disconnected patterns arise after RmE).
		if i == len(v.order)-1 {
			for u := range q.Nodes {
				if !seen[u] {
					seen[u] = true
					v.order = append(v.order, query.NodeID(u))
					// No assigned neighbor will anchor u: it is the
					// one kind of node enumerated from its candidates.
					v.cands[u] = v.pat.Candidates(v.m.G, q, query.NodeID(u))
					break
				}
			}
		}
	}
	v.h = v.h[:0]
	for range q.Nodes {
		v.h = append(v.h, -1)
	}
	if v.dmemo == nil {
		v.dmemo = map[int64]int32{}
	} else {
		clear(v.dmemo)
	}

	v.focusAt = v.focusAt[:0]
	for range v.stars {
		v.focusAt = append(v.focusAt, 0)
	}

	v.colFor = v.colFor[:0]
	for range 2 * len(q.Edges) {
		v.colFor = append(v.colFor, enumRef{star: -1})
	}
	for si, inst := range v.stars {
		for k, se := range inst.Star.Edges {
			if inst.Cols[k] < 0 {
				continue
			}
			v.colFor[colIndex(se.EdgeIdx, se.Out)] = enumRef{star: si, col: inst.Cols[k]}
		}
	}
}

// verify reports whether an injective valuation with h(focus) = cand
// exists.
func (v *verifier) verify(cand graph.NodeID) bool {
	for i := range v.h {
		v.h[i] = -1
	}
	v.h[v.q.Focus] = cand
	return v.extend(1)
}

// edgeConstraint is one distance requirement between the node being
// assigned and an already-assigned anchor.
type edgeConstraint struct {
	edge   int          // pattern edge index
	anchor graph.NodeID // the assigned endpoint's image
	bound  int
	out    bool // anchor → u in the pattern
}

// tryAssign extends the valuation with h(u) = w and recurses; the
// assignment is rolled back on failure.
func (v *verifier) tryAssign(u query.NodeID, w graph.NodeID, depth int) bool {
	if slices.Contains(v.h, w) {
		return false
	}
	v.h[u] = w
	ok := v.extend(depth + 1)
	v.h[u] = -1
	return ok
}

// memoWithin is Dist.Within with a per-Match memo on the node pair.
// The verdict is monotone in the bound — within at b implies within at
// every b' ≥ b, and not-within at b implies not-within at every
// b' ≤ b — so the memo stores two half-open certificates per pair,
// packed into one int32: the high 16 bits hold minTrue+1 (the smallest
// bound proven within; 0 = none yet) and the low 16 bits hold
// maxFalse+1 (the largest bound proven exceeded; 0 = none yet). Only
// queries falling in the unknown gap between the certificates reach
// the oracle, and only Within is ever called — never exact Dist, which
// on the BFS oracle would trade a bounded search for an unbounded one.
func (v *verifier) memoWithin(s, t graph.NodeID, bound int) bool {
	if bound < 0 || bound >= 1<<16-1 {
		return v.m.Dist.Within(s, t, bound)
	}
	key := int64(s)<<32 | int64(uint32(t))
	rec := v.dmemo[key]
	minTrue := int(rec>>16) - 1
	maxFalse := int(rec&0xffff) - 1
	if minTrue >= 0 && bound >= minTrue {
		return true
	}
	if maxFalse >= 0 && bound <= maxFalse {
		return false
	}
	within := v.m.Dist.Within(s, t, bound)
	if within {
		minTrue = bound
	} else {
		maxFalse = bound
	}
	v.dmemo[key] = int32(minTrue+1)<<16 | int32(maxFalse+1)
	return within
}

// checkRest verifies the remaining distance constraints on w (all but
// cons[skip], which the enumeration source already guarantees).
func (v *verifier) checkRest(cons []edgeConstraint, w graph.NodeID, skip int) bool {
	for i, c := range cons {
		if i == skip {
			continue
		}
		var within bool
		if c.out {
			within = v.memoWithin(c.anchor, w, c.bound)
		} else {
			within = v.memoWithin(w, c.anchor, c.bound)
		}
		if !within {
			return false
		}
	}
	return true
}

func (v *verifier) extend(depth int) bool {
	if depth == len(v.order) {
		return true
	}
	u := v.order[depth]

	// Per-depth constraint buffer: frames below this one still hold
	// theirs, so the scratch is indexed by depth and kept on the
	// verifier for reuse across candidates and Match calls.
	for len(v.cons) <= depth {
		v.cons = append(v.cons, nil)
	}
	cons := v.cons[depth][:0]
	for ei, e := range v.q.Edges {
		switch {
		case e.From == u && v.h[e.To] >= 0:
			cons = append(cons, edgeConstraint{edge: ei, anchor: v.h[e.To], bound: e.Bound, out: false})
		case e.To == u && v.h[e.From] >= 0:
			cons = append(cons, edgeConstraint{edge: ei, anchor: v.h[e.From], bound: e.Bound, out: true})
		}
	}
	v.cons[depth] = cons

	if len(cons) == 0 {
		for _, w := range v.cands[u] {
			if v.tryAssign(u, w, depth) {
				return true
			}
		}
		return false
	}

	// Enumeration source: prefer the smallest star-table partner list
	// among the constraints; its entries are already distance- and
	// candidate-filtered (focus entries are label-only and re-checked).
	bestList := -1
	var list []graph.NodeID
	for i, c := range cons {
		ref := v.colFor[colIndex(c.edge, c.out)]
		if ref.star < 0 {
			continue
		}
		t := v.stars[ref.star].Table
		row, ok := t.Row(c.anchor)
		if !ok {
			// The anchor is not a match of its star's center: no
			// valuation extends this assignment.
			return false
		}
		if l := t.Col(row, ref.col); bestList < 0 || len(l) < len(list) {
			bestList, list = i, l
		}
	}

	if bestList >= 0 {
		needLitCheck := u == v.q.Focus // focus columns are label-only
		for _, w := range list {
			if needLitCheck && !v.pat.Nodes[u].Check.Candidate(v.m.G, w) {
				continue
			}
			if v.checkRest(cons, w, bestList) && v.tryAssign(u, w, depth) {
				return true
			}
		}
		return false
	}

	// Fallback: expand the smallest-bound constraint's ball.
	best := 0
	for i := 1; i < len(cons); i++ {
		if cons[i].bound < cons[best].bound {
			best = i
		}
	}
	bc := cons[best]
	dir := graph.Forward
	if !bc.out {
		dir = graph.Backward
	}
	check := &v.pat.Nodes[u].Check
	// The ball is read while deeper frames draw theirs: a copy per depth,
	// like cons, out of a traverser's storage.
	for len(v.balls) <= depth {
		v.balls = append(v.balls, nil)
	}
	tr := v.m.G.Traverser()
	ball := append(v.balls[depth][:0], tr.Ball(bc.anchor, bc.bound, dir)...)
	tr.Release()
	v.balls[depth] = ball
	for _, nd := range ball {
		if nd.D == 0 {
			continue
		}
		w := nd.V
		if !check.Candidate(v.m.G, w) {
			continue
		}
		if v.checkRest(cons, w, best) && v.tryAssign(u, w, depth) {
			return true
		}
	}
	return false
}
