package chase

import (
	"math/bits"
	"slices"

	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// maxPartnerHops bounds partner exploration; beyond it partner sets
// stop being overestimates, so the cap stays generous relative to the
// b_m·|E_Q| pattern radii of real queries.
const maxPartnerHops = 4

// maxPartnersScored caps how many partners a scored set keeps: hub
// nodes otherwise blow up the per-operator estimation loops. The
// certainty estimates degrade gracefully (they are ranking heuristics,
// not correctness guards).
const maxPartnersScored = 96

// partnerCacheKey identifies a partner set, packed into one integer: the
// focus match in the high 32 bits, and in the low 32 the id Why.sigID
// gave the pattern node's matching signature and partner radius.
type partnerCacheKey uint64

func partnerKey(v graph.NodeID, sig int32) partnerCacheKey {
	return partnerCacheKey(uint64(uint32(v))<<32 | uint64(uint32(sig)))
}

// sigID numbers matching signatures in order of first use.
func (w *Why) sigID(sig []byte) int32 {
	id, ok := w.partnerSigs[string(sig)]
	if !ok {
		id = int32(len(w.partnerSigs))
		w.partnerSigs[string(sig)] = id
	}
	return id
}

// refineGen is the working state of one GenRefine call: the sampled
// relevant and irrelevant matches, what locates their partner sets,
// and the operators accumulated so far. It lives in a genScratch, as
// does all it points to but the Why and the question.
type refineGen struct {
	w          *Why
	sc         *genScratch
	q          *query.Query
	codes      *graph.Codes // w.G's tuples as value codes
	pat        *query.Compiled
	rm, im     []graph.NodeID
	used       ops.Targets
	budgetLeft float64
	acc        *accums
	// pd, indexed by pattern node: its distance from u_o, capped at
	// maxPartnerHops (ball sizes explode on power-law graphs).
	pd []int
	// sig, indexed by pattern node: the Why-level id of the node's
	// matching signature and pd, the partner-cache key component.
	sig []int32
}

// newRefineGen samples the relevant and irrelevant matches of res and
// resolves each pattern node's partner radius and signature, into sc,
// whose accumulators it empties. The generator is good until sc's next
// call.
func newRefineGen(sc *genScratch, w *Why, res *match.Result, rm, im []graph.NodeID, used ops.Targets, budgetLeft float64) *refineGen {
	g, q := &sc.refine, res.Query
	*g = refineGen{w: w, sc: sc, q: q, codes: w.G.Codes(), pat: &res.Pat, used: used, budgetLeft: budgetLeft,
		// Neighborhood analysis is per-node bounded BFS; cap both sets
		// (highest closeness first) to keep generation within bounded delay.
		rm:  sampleByCl(w, rm, w.Cfg.MaxAnalysis, &sc.rm),
		im:  sampleByCl(w, im, w.Cfg.MaxAnalysis, &sc.im),
		pd:  sized(g.pd, len(q.Nodes)),
		sig: sized(g.sig, len(q.Nodes)),
		acc: &sc.acc,
	}
	sc.acc.reset()
	sig := sc.sig
	for u := range q.Nodes {
		d := min(res.Pat.Dist[u], maxPartnerHops) // graph.Unreachable is the largest int
		g.pd[u] = d
		// The radius is the last byte, so distinct pairs number apart.
		sig = append(query.AppendNodeSig(sig[:0], &q.Nodes[u]), byte(d))
		g.sig[u] = w.sigID(sig)
	}
	sc.sig = sig
	return g
}

// sized returns s resliced to n elements, or a new slice when s cannot
// hold them; the elements hold whatever they held.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// partners returns the candidate partners of focus match v at pattern
// node u: nodes that could serve as h(u) in a valuation sending the
// focus to v. Partner sets are distance-based overestimates (the first
// maxPartnersScored candidates of u in BFS order around v within the
// pattern distance, ignoring direction), which is exactly the quality
// the paper's pickiness estimates need: "no partner satisfies"
// certifies removal, "some partner satisfies" certifies nothing. A set
// is in the order its candidates were met: its readers, addL and rfL,
// count and compare codes per partner, in any order.
//
// Results are memoized on the Why across chase states: they depend only
// on v, u's matching signature, and the radius. fillPartners has stored
// the set of every sampled match, so during a GenRefine call this is a
// lookup; the traversal below serves the sets the batched sweep cannot
// decide. It stops at the last partner it keeps — the undirected
// radius-4 ball of a hub is most of the graph.
func (g *refineGen) partners(v graph.NodeID, u query.NodeID) []graph.NodeID {
	if u == g.q.Focus {
		// A match partners itself alone there: a one-node window on
		// FocusCands, which holds every match.
		if i, ok := slices.BinarySearch(g.w.FocusCands, v); ok {
			return g.w.FocusCands[i : i+1 : i+1]
		}
		return []graph.NodeID{v}
	}
	key := partnerKey(v, g.sig[u])
	if p, ok := g.w.partnerCache[key]; ok {
		return p
	}
	G := g.w.G
	check := &g.pat.Nodes[u].Check
	out := g.sc.part[:0]
	G.VisitBall(v, g.pd[u], graph.Both, func(n graph.NodeID, d int32) bool {
		if d > 0 && check.Candidate(G, n) {
			out = append(out, n)
		}
		return len(out) < maxPartnersScored
	})
	g.sc.part = out
	set := append([]graph.NodeID(nil), out...) // nil when empty
	g.w.partnerCache[key] = set
	return set
}

// fillPartners computes the partner sets the sampled matches still lack,
// graph.MaxBallSources matches per traversal. The sampled matches of one
// question are neighbours of one another, so their balls are largely the
// same nodes: one bit-parallel sweep scans each edge once per level and
// tests each reached node once per level, where a traversal per match
// does both once per match.
//
// A set that never meets a candidate beyond maxPartnersScored is the
// whole candidate ball, which has no order to respect, and the sweep
// stores it. One that does is a prefix of the ball in BFS order, which
// only the single-source traversal defines: its match is retired from
// the sweep and left to partners. The sets one sweep stores share one
// allocation, each in the order the sweep met its candidates.
func (g *refineGen) fillPartners() {
	G, sc := g.w.G, g.sc
	miss := sc.miss
	// buf holds the sets being collected, maxPartnersScored slots per
	// source; n counts what each source has met.
	buf := sc.buf
	var n [graph.MaxBallSources]int
	for ui := range g.q.Nodes {
		u := query.NodeID(ui)
		if u == g.q.Focus {
			continue
		}
		miss = miss[:0]
		for _, side := range [2][]graph.NodeID{g.im, g.rm} {
			for _, v := range side {
				if _, ok := g.w.partnerCache[partnerKey(v, g.sig[u])]; !ok {
					miss = append(miss, v)
				}
			}
		}
		if len(miss) == 0 {
			continue
		}
		if buf == nil {
			buf = make([]graph.NodeID, graph.MaxBallSources*maxPartnersScored)
			sc.buf = buf
		}
		check := &g.pat.Nodes[u].Check
		for batch := miss; len(batch) > 0; {
			clear(n[:])
			var over uint64 // sources that met more than they may keep
			taken := G.VisitBalls(batch, g.pd[u], graph.Both, func(p graph.NodeID, d int32, mask uint64) uint64 {
				if d == 0 || mask&^over == 0 || !check.Candidate(G, p) {
					return over
				}
				for m := mask &^ over; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					if n[i] == maxPartnersScored {
						over |= 1 << i
						continue
					}
					buf[i*maxPartnersScored+n[i]] = p
					n[i]++
				}
				return over
			})
			size := 0
			for i := range batch[:taken] {
				if over&(1<<i) == 0 {
					size += n[i]
				}
			}
			slab := make([]graph.NodeID, 0, size)
			for i, v := range batch[:taken] {
				if over&(1<<i) != 0 {
					g.partners(v, u)
					continue
				}
				lo := len(slab)
				slab = append(slab, buf[i*maxPartnersScored:i*maxPartnersScored+n[i]]...)
				g.w.partnerCache[partnerKey(v, g.sig[u])] = slab[lo:len(slab):len(slab)]
			}
			batch = batch[taken:]
		}
	}
	sc.miss = miss
}

// GenRefine implements GenRf (§5.3 + Appendix B): it derives picky
// refinement operators (AddL, RfL, RfE, AddE) from the neighborhoods of
// relevant matches and scores each by
// p'(o) = (λ·|IM̄(o)| − Σ_{v∈RM̲(o)} cl(v,E)) / |V_{u_o}|, where IM̄ is
// the certainly-removed irrelevant-match set and RM̲ the
// certainly-removed relevant-match set under partner overestimation.
// res is the state's evaluation, its query compiled (match.Result.Pat).
func (w *Why) GenRefine(res *match.Result, used ops.Targets, budgetLeft float64) []scoredOp {
	if !expandable(budgetLeft) {
		return nil
	}
	rm, im, _, _ := w.partition(res, &w.scratch().parts)
	return w.genRefine(res, rm, im, used, budgetLeft)
}

// genRefine is GenRefine over the matches of a state the caller has
// partitioned and found expandable.
func (w *Why) genRefine(res *match.Result, rm, im []graph.NodeID, used ops.Targets, budgetLeft float64) []scoredOp {
	if len(im) == 0 {
		return nil
	}
	sc := w.scratch()
	sc.busy = true
	g := newRefineGen(sc, w, res, rm, im, used, budgetLeft)
	// AddL and RfL, the partner sets' only readers, propose values RM
	// partners carry: with no RM sampled the sets are not built.
	if len(g.rm) > 0 {
		g.fillPartners()
		g.addL()
		g.rfL()
	}
	g.rfE()
	g.addE()
	out := w.finishScored(g.acc)
	sc.busy = false
	return out
}

// add records refinement o, certainly removing the given irrelevant and
// relevant matches, unless it cannot help, cannot be applied or
// afforded, or was already generated. ref is keyOf's.
func (g *refineGen) add(o ops.Op, ref int32, pickyEdge int, removedIM, removedRM []graph.NodeID) {
	if len(removedIM) == 0 {
		return // no hope of improving closeness
	}
	w := g.w
	if !o.Applicable(g.q, w.params) || o.Cost(w.G) > g.budgetLeft {
		return
	}
	a, fresh := g.acc.at(keyOf(g.q, o, ref))
	if !fresh {
		return
	}
	var rmLoss float64
	for _, v := range removedRM {
		rmLoss += w.Eval.Cl(v)
	}
	a.op = scoredOp{Op: o, PickyEdge: pickyEdge}
	a.total = w.Cfg.Lambda*float64(len(removedIM)) - rmLoss
	if gainTaken != nil {
		gainTaken(keyOf(g.q, o, ref), removedIM)
	}
}

// maxValuesPerAttr caps how many values of one attribute AddL proposes
// at one pattern node.
const maxValuesPerAttr = 6

// addLCand is one distinct attribute value carried by RM partners of a
// pattern node: a candidate AddL(u, A = a).
type addLCand struct {
	count int32
	// rank is the place of the value's rendered key "attr=val#kind"
	// among all of the graph's (graph.Codes.KeyRanks), whose byte order
	// breaks count ties.
	rank int32
	// cell is the value proposed: its attribute and code.
	cell graph.AttrCode
}

// before reports whether AddL prefers c to d: more RM partner cells
// counted, then the lower (distinct) rank.
func (c addLCand) before(d addLCand) bool {
	return c.count > d.count || c.count == d.count && c.rank < d.rank
}

// addLCount is addL's scratch for one value code; all zero between uses.
type addLCount struct {
	n    int32          // RM partner cells counted
	cell graph.AttrCode // the cell counted: the value proposed
}

// addLScratch is addL's working memory. The per-code tables are kept
// because zeroing them per call would cost more than the counting:
// every user leaves them zero, resetting only the codes it touched.
// The rest is addL's and rfL's lists, whatever their last call left.
type addLScratch struct {
	counts []addLCount
	// keptOf is nonzero for the codes of kept candidates: one more than
	// the candidate's place in its attribute's attrSlot.top.
	keptOf []uint8

	slots          []attrSlot
	attrs, touched []int32
	parts          [][]graph.NodeID
	kept           []addLCand
	vals           []graph.Value
	ext            []int32 // rfL's extreme codes, one per sampled match
	survives       []bool
}

// sizedFor grows the per-code tables to hold codes. They only grow, so
// they fit the largest graph the scratch has served, and they stay zero.
func (sc *addLScratch) sizedFor(codes *graph.Codes) *addLScratch {
	if n := codes.Len(); len(sc.counts) < n {
		sc.counts, sc.keptOf = make([]addLCount, n), make([]uint8, n)
	}
	return sc
}

// addLCounted, when set, runs in addL while the counts it took at a
// pattern node, some, are not yet reset. Tests panic in it.
var addLCounted func()

// attrSlot is addL's per-attribute state at the current pattern node.
type attrSlot struct {
	// state: whether AddL may constrain the attribute here (no "="
	// literal on it yet, target not used), settled once per (node,
	// attribute) rather than per cell.
	state uint8
	// top holds the attribute's best candidates so far, best first: the
	// kept ones, once all are offered, whose survivor rows start at at.
	nKept uint8
	top   [maxValuesPerAttr]addLCand
	at    int32
}

// offer inserts c in its place if it is among the slot's best
// maxValuesPerAttr candidates so far.
func (s *attrSlot) offer(c addLCand) {
	j := min(int(s.nKept), maxValuesPerAttr-1) // a full slot's last gives way
	if s.nKept < maxValuesPerAttr {
		s.nKept++
	} else if !c.before(s.top[j]) {
		return
	}
	for ; j > 0 && c.before(s.top[j-1]); j-- {
		s.top[j] = s.top[j-1]
	}
	s.top[j] = c
}

const (
	slotNew    uint8 = iota
	slotClosed       // AddL may not constrain the attribute
	slotOpen
)

// openSlot settles whether AddL may constrain attribute a at u.
func (g *refineGen) openSlot(u query.NodeID, a int32) uint8 {
	attr := g.w.G.Attrs.Name(a)
	if g.q.FindLiteral(u, attr, graph.EQ) >= 0 || g.used.Has(ops.LitTarget(u, attr)) {
		return slotClosed
	}
	return slotOpen
}

// addL (genAddL): for each pattern node u and attribute value carried
// by an RM-supporting match of u and not yet constrained in F_Q(u),
// propose AddL(u, A = a) hoping irrelevant matches fail it.
//
// It works on value codes (graph.Codes): a cell is two small integers,
// equal cells have equal codes, and the rendered keys that define and
// order candidates are ranked once per graph, so counting is an array
// increment per partner cell and choosing the values to keep a bounded
// insertion per candidate. Scoring a candidate needs the sampled
// matches that keep no partner carrying the value. Rather than
// rescanning every partner once per candidate, one pass over the
// partners' coded tuples marks, for every kept candidate at once, which
// sampled matches survive it; removal sets are the complements, read in
// im/rm order. A cell marks a candidate under exactly Literal.Sat's test
// (same attribute, same kind, Compare == 0), which on a graph's
// canonical values is "same code". The order the kept candidates are
// added in decides nothing: finishScored orders distinct operators by
// identity.
func (g *refineGen) addL() {
	G, codes := g.w.G, g.codes
	rank := codes.KeyRanks()
	sc := g.sc.addL.sizedFor(codes)
	counts, keptOf := sc.counts, sc.keptOf
	slots := sized(sc.slots, G.Attrs.Len())
	clear(slots)
	attrs := sc.attrs[:0]     // slots to reset before the next pattern node
	touched := sc.touched[:0] // codes counted at this pattern node
	nIM := len(g.im)
	parts := sized(sc.parts, nIM+len(g.rm)) // partner sets, im then rm
	kept := sc.kept
	vals := sc.vals         // the kept candidates' values
	survives := sc.survives // candidate-major: survives[k*len(parts)+i]
	imOut, rmOut := g.sc.imOut, g.sc.rmOut

	for ui := range g.q.Nodes {
		u := query.NodeID(ui)
		for _, a := range attrs {
			slots[a] = attrSlot{}
		}
		attrs, touched, kept, vals = attrs[:0], touched[:0], kept[:0], vals[:0]

		// Count attribute values over RM partners at u.
		for i, vrm := range g.rm {
			parts[nIM+i] = g.partners(vrm, u)
			for _, p := range parts[nIM+i] {
				for _, t := range G.Tuple(p) {
					state := slots[t.Attr].state
					if state == slotNew {
						state = g.openSlot(u, t.Attr)
						slots[t.Attr].state = state
						attrs = append(attrs, t.Attr)
					}
					if state == slotClosed {
						continue
					}
					c := &counts[t.Code]
					if c.n == 0 {
						touched = append(touched, t.Code)
					}
					c.n++
					c.cell = t
				}
			}
		}
		if addLCounted != nil && len(touched) > 0 {
			addLCounted()
		}

		// Keep the most frequent values of each attribute.
		for _, code := range touched {
			c := &counts[code]
			slots[c.cell.Attr].offer(addLCand{count: c.n, rank: rank[code], cell: c.cell})
			*c = addLCount{}
		}
		for _, a := range attrs {
			slot := &slots[a]
			slot.at = int32(len(kept))
			for j, c := range slot.top[:slot.nKept] {
				keptOf[c.cell.Code] = uint8(j + 1)
				kept = append(kept, c)
				vals = append(vals, G.Value(c.cell))
			}
		}
		if len(kept) == 0 {
			continue
		}

		// Mark, per kept candidate, the sampled matches that survive it.
		for i, v := range g.im {
			parts[i] = g.partners(v, u)
		}
		survives = append(survives[:0], make([]bool, len(kept)*len(parts))...)
		for i, ps := range parts {
			for _, p := range ps {
				for _, t := range G.Tuple(p) {
					if at := keptOf[t.Code]; at != 0 {
						survives[int(slots[t.Attr].at+int32(at)-1)*len(parts)+i] = true
					}
				}
			}
		}
		for k, c := range kept {
			keptOf[c.cell.Code] = 0
			alive := survives[k*len(parts) : (k+1)*len(parts)]
			imOut, rmOut = imOut[:0], rmOut[:0]
			for i, v := range g.im {
				if !alive[i] {
					imOut = append(imOut, v)
				}
			}
			for i, v := range g.rm {
				if !alive[nIM+i] {
					rmOut = append(rmOut, v)
				}
			}
			lit := query.Literal{Attr: G.Attrs.Name(c.cell.Attr), Op: graph.EQ, Val: vals[k]}
			g.add(ops.Op{Kind: ops.AddL, U: u, Lit: lit}, c.cell.Code, -1, imOut, rmOut)
		}
	}
	sc.slots, sc.attrs, sc.touched, sc.parts = slots, attrs, touched, parts
	sc.kept, sc.vals, sc.survives = kept, vals, survives
	g.sc.imOut, g.sc.rmOut = imOut, rmOut
}

// rfL (genRfL): tighten existing numeric literals toward the
// RM-supporting values (Appendix B rules, using ≤/≥ so the nearest
// relevant value keeps matching).
//
// It works on number codes, which ascend with value (graph.Codes). A
// tightening value a is an RM partner's, so it has a code, and a sampled
// match survives "A ≤ a" exactly when the least number code of A among
// its partners is at most a's ("A ≥ a": the greatest, at least). The
// extreme codes are read once per literal, on its first tightening.
func (g *refineGen) rfL() {
	const maxValues = 6
	G, nIM := g.w.G, len(g.im)
	sc := g.sc.addL.sizedFor(g.codes)
	counts := sc.counts // n marks the codes met
	touched, ext := sc.touched, sc.ext
	for ui := range g.q.Nodes {
		u := query.NodeID(ui)
		for li, l := range g.q.Nodes[u].Literals {
			op := graph.GE // the tightened literal's
			if l.Op == graph.LE || l.Op == graph.LT {
				op = graph.LE
			} else if l.Op != graph.GE && l.Op != graph.GT {
				continue // an "=" has nothing to tighten
			}
			least := op == graph.LE
			if l.Val.Kind != graph.Number || g.used.Has(ops.LitTarget(u, l.Attr)) {
				continue
			}
			aid := g.pat.Nodes[u].Lits[li].Attr
			if aid < 0 {
				continue // no node carries the attribute: nothing to tighten toward
			}
			// RM-supporting values of this attribute at u: the distinct
			// number codes met, the bound's side first — tightening an
			// upper bound down takes the largest first (loses no RM
			// support), then a few tighter steps.
			lo, hi := g.codes.NumberCodes(aid)
			touched = touched[:0]
			for _, vrm := range g.rm {
				for _, p := range g.partners(vrm, u) {
					if c, ok := g.numCode(p, aid, lo, hi); ok && counts[c].n == 0 {
						counts[c].n = 1
						touched = append(touched, c)
					}
				}
			}
			slices.Sort(touched)
			if least {
				slices.Reverse(touched)
			}
			ext = ext[:0] // read on the first tightening; im is never empty
			count := 0
			for _, c := range touched {
				counts[c].n = 0
				a := G.Value(graph.AttrCode{Attr: aid, Code: c})
				if count == maxValues || !(least && a.Num < l.Val.Num || !least && a.Num > l.Val.Num) {
					continue
				}
				count++
				if len(ext) == 0 {
					ext = g.extremes(ext, u, aid, lo, hi, least)
				}
				imOut, rmOut := g.sc.imOut[:0], g.sc.rmOut[:0]
				for i, e := range ext {
					switch {
					case least && e <= c || !least && e >= c: // survives
					case i < nIM:
						imOut = append(imOut, g.im[i])
					default:
						rmOut = append(rmOut, g.rm[i-nIM])
					}
				}
				g.sc.imOut, g.sc.rmOut = imOut, rmOut
				newLit := query.Literal{Attr: l.Attr, Op: op, Val: a}
				g.add(ops.Op{Kind: ops.RfL, U: u, Lit: l, NewLit: newLit}, -1, -1, imOut, rmOut)
			}
		}
	}
	sc.touched, sc.ext = touched, ext
}

// numCode returns p's code of attribute aid when it is a number: one of
// the codes [lo, hi).
func (g *refineGen) numCode(p graph.NodeID, aid, lo, hi int32) (int32, bool) {
	for _, t := range g.w.G.Tuple(p) { // sorted by attribute
		if t.Attr >= aid {
			return t.Code, t.Attr == aid && lo <= t.Code && t.Code < hi
		}
	}
	return 0, false
}

// extremes appends, for each sampled match (im, then rm), the least
// (least set) or the greatest number code of attribute aid among its
// partners at u; hi or lo−1, which no tightening lets survive, for none.
func (g *refineGen) extremes(dst []int32, u query.NodeID, aid, lo, hi int32, least bool) []int32 {
	for _, side := range [2][]graph.NodeID{g.im, g.rm} {
		for _, v := range side {
			e := lo - 1
			if least {
				e = hi
			}
			for _, p := range g.partners(v, u) {
				if c, ok := g.numCode(p, aid, lo, hi); ok && (least && c < e || !least && c > e) {
					e = c
				}
			}
			dst = append(dst, e)
		}
	}
	return dst
}

// rfE (genRfE): tighten edge bounds by one (Appendix B: RfE(e, b, b−1)).
// Removal certainty is computed for focus-incident edges via bounded
// BFS; deeper edges are generated with the full irrelevant-match set as
// the (over-)estimated removal.
func (g *refineGen) rfE() {
	G := g.w.G
	for ei, e := range g.q.Edges {
		if e.Bound <= 1 || g.used.Has(ops.EdgeTarget(e.From, e.To)) {
			continue
		}
		o := ops.Op{Kind: ops.RfE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound - 1}
		var other query.NodeID
		var dir graph.Direction
		switch g.q.Focus {
		case e.From:
			other, dir = e.To, graph.Forward
		case e.To:
			other, dir = e.From, graph.Backward
		default:
			// Non-focus edge: certainty is unavailable locally.
			g.add(o, -1, ei, g.im, nil)
			continue
		}
		// certainlyCut: no candidate of the other endpoint lies within
		// the tightened bound of v. The search ends at the first one.
		check := &g.pat.Nodes[other].Check
		certainlyCut := func(v graph.NodeID) bool {
			cut := true
			G.VisitBall(v, e.Bound-1, dir, func(n graph.NodeID, d int32) bool {
				cut = d == 0 || !check.Candidate(G, n)
				return cut
			})
			return cut
		}
		imOut, rmOut := g.sc.imOut[:0], g.sc.rmOut[:0]
		for _, v := range g.im {
			if certainlyCut(v) {
				imOut = append(imOut, v)
			}
		}
		for _, v := range g.rm {
			if certainlyCut(v) {
				rmOut = append(rmOut, v)
			}
		}
		g.add(o, -1, ei, imOut, rmOut)
		g.sc.imOut, g.sc.rmOut = imOut, rmOut
	}
}

// addE (genAddE): add edges from the focus to existing pattern nodes or to a
// fresh labeled node, with a bound large enough that every relevant
// match keeps a partner (Appendix B AddE rules, restricted to the focus
// per DESIGN.md §6).
func (g *refineGen) addE() {
	w, q, rm, im, used, add := g.w, g.q, g.rm, g.im, g.used, g.add
	if len(rm) == 0 {
		return
	}
	focus := q.Focus
	bm := w.Cfg.MaxBound

	// nearest returns the hop distance from sampled match i to the
	// nearest node satisfying pred, within bm, in the given direction.
	// The matches are numbered rm first, then im. Balls are memoized per
	// match and direction, forward at 2i and backward at 2i+1 — AddE
	// generation probes the same neighborhoods for many predicates. They
	// lie one after another in the scratch's balls, ballAt locating each
	// (a ball holds its origin, so an empty span is one not yet taken).
	sc := g.sc
	tr := w.G.Traverser()
	defer tr.Release()
	balls := sc.balls[:0]
	ballAt := sized(sc.ballAt, 2*(len(rm)+len(im)))
	clear(ballAt)
	ballOf := func(i int, dir graph.Direction) []graph.NodeDist {
		slot := 2 * i
		if dir == graph.Backward {
			slot++
		}
		if ballAt[slot][1] == 0 {
			var v graph.NodeID
			if i < len(rm) {
				v = rm[i]
			} else {
				v = im[i-len(rm)]
			}
			lo := len(balls)
			balls = append(balls, tr.Ball(v, bm, dir)...)
			ballAt[slot] = [2]int32{int32(lo), int32(len(balls))}
		}
		return balls[ballAt[slot][0]:ballAt[slot][1]]
	}
	nearest := func(i int, dir graph.Direction, pred func(graph.NodeID) bool) int {
		for _, nd := range ballOf(i, dir) {
			if nd.D > 0 && pred(nd.V) {
				return int(nd.D) // BFS order: first hit is nearest
			}
		}
		return graph.Unreachable
	}

	// (1) Existing pattern nodes not yet adjacent to the focus.
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		if u == focus || q.FindEdge(focus, u) >= 0 || q.FindEdge(u, focus) >= 0 {
			continue
		}
		if used.Has(ops.EdgeTarget(focus, u)) && used.Has(ops.EdgeTarget(u, focus)) {
			continue
		}
		isCand := func(nb graph.NodeID) bool { return g.pat.Nodes[u].Check.Candidate(w.G, nb) }
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			k := 0
			feasible := true
			for i := range rm {
				d := nearest(i, dir, isCand)
				if d == graph.Unreachable {
					feasible = false
					break
				}
				if d > k {
					k = d
				}
			}
			if !feasible || k < 1 || k > bm {
				continue
			}
			var o ops.Op
			if dir == graph.Forward {
				o = ops.Op{Kind: ops.AddE, U: focus, U2: u, Bound: k}
			} else {
				o = ops.Op{Kind: ops.AddE, U: u, U2: focus, Bound: k}
			}
			imOut := sc.imOut[:0]
			for j, v := range im {
				if nearest(len(rm)+j, dir, isCand) > k {
					imOut = append(imOut, v)
				}
			}
			add(o, -1, -1, imOut, nil)
			sc.imOut = imOut
		}
	}

	// (2) Fresh labeled node adjacent to the focus: collect labels near
	// relevant matches, keep those every RM can reach, rank by how many
	// irrelevant matches lack them. Both tables are indexed by label id.
	labels := sized(sc.labels, w.G.Labels.Len())
	found := sized(sc.found, len(labels)) // one RM's nearest hop distance per label, 0 for none
	sc.labels, sc.found = labels, found
	for i := range rm {
		clear(found)
		for _, nd := range ballOf(i, graph.Forward) {
			if lid := w.G.LabelID(nd.V); nd.D > 0 && found[lid] == 0 {
				found[lid] = int(nd.D) // BFS order: first is nearest
			}
		}
		for lid, d := range found {
			info := &labels[lid]
			switch {
			case i == 0:
				*info = labelInfo{k: d, feasible: d > 0}
			case !info.feasible:
			case d == 0:
				info.feasible = false
			case d > info.k:
				info.k = d
			}
		}
	}
	const maxNewLabels = 8
	generated := 0
	for l, info := range labels {
		if generated >= maxNewLabels {
			break
		}
		if !info.feasible {
			continue
		}
		lid := int32(l)
		name := w.G.Labels.Name(lid)
		if name == "" {
			continue
		}
		hasLabel := func(nb graph.NodeID) bool { return w.G.LabelID(nb) == lid }
		imOut := sc.imOut[:0]
		for j, v := range im {
			if nearest(len(rm)+j, graph.Forward, hasLabel) > info.k {
				imOut = append(imOut, v)
			}
		}
		sc.imOut = imOut
		if len(imOut) == 0 {
			continue
		}
		add(ops.Op{Kind: ops.AddE, U: focus, Bound: info.k,
			NewNode: &ops.NewNodeSpec{Label: name}}, lid, -1, imOut, nil)
		generated++
	}
	sc.balls, sc.ballAt = balls, ballAt
}

// labelInfo is addE's per-label state.
type labelInfo struct {
	k        int  // the farthest RM's hop distance to its nearest node of the label
	feasible bool // every RM so far reaches the label
}
