package exemplar

import (
	"math"
	"sort"
	"strings"
	"unicode/utf8"

	"wqe/internal/graph"
)

// Options tunes the vsim predicate and the closeness measure.
type Options struct {
	// Theta is the vsim threshold: v ~ t iff cl(v, t) ≥ Theta.
	// The default 1 requires exact constant matches (the paper's own
	// example predicate).
	Theta float64
	// Lambda is the irrelevant-match penalty factor λ of cl(Q(G), E).
	Lambda float64
}

// DefaultOptions mirrors the paper's running examples: exact matching
// and λ = 1.
func DefaultOptions() Options { return Options{Theta: 1, Lambda: 1} }

// cellSim computes cl(v.A, t.A) ∈ [0,1] for a constant cell: numeric
// values score 1 − |a−c| / range(A); strings score by normalized edit
// similarity (1 when equal).
func cellSim(have, want graph.Value, dom *graph.Domain) float64 {
	if have.Kind != want.Kind {
		return 0
	}
	if have.Kind == graph.Number {
		diff := have.Num - want.Num
		if diff < 0 {
			diff = -diff
		}
		s := 1 - diff/dom.Range()
		if s < 0 {
			return 0
		}
		return s
	}
	if have.Str == want.Str {
		return 1
	}
	return stringSim(have.Str, want.Str)
}

// stringSim is a normalized Levenshtein similarity: 1 − dist/maxLen.
func stringSim(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	maxLen := len(ra)
	if len(rb) > maxLen {
		maxLen = len(rb)
	}
	return 1 - float64(prev[len(rb)])/float64(maxLen)
}

// TupleCloseness computes cl(v, t) = Σ_A cl(v.A, t.A) / |A(t)| over the
// attributes A(t) explicitly present in the tuple pattern. Variable and
// wildcard cells contribute 1 when the node carries the attribute
// (variables must be evaluable); a missing attribute contributes 0 for
// Const and Var cells and 1 for explicit wildcards. It is the public
// kernel the tests pin; Eval compiles each tuple pattern once instead.
func TupleCloseness(g *graph.Graph, v graph.NodeID, t TuplePattern) float64 {
	return compilePattern(g, t).closeness(g, v)
}

// compiledPattern is a tuple pattern resolved against one graph: its
// cells in sorted attribute order with attribute ids and active domains
// looked up once, so scoring a node is a walk over a slice instead of a
// sort plus a name lookup and a domain lookup per cell. Float addition
// rounds differently under different orders, and closeness values are
// compared exactly against θ and each other downstream, so the cell
// order is TuplePattern.SortedAttrs' — the order sums always used.
type compiledPattern []compiledCell

type compiledCell struct {
	aid   int32
	known bool // the graph has the attribute at all
	kind  CellKind
	val   graph.Value
	dom   *graph.Domain // Const cells only
}

func compilePattern(g *graph.Graph, t TuplePattern) compiledPattern {
	cp := make(compiledPattern, 0, len(t))
	for _, attr := range t.SortedAttrs() {
		cell := t[attr]
		c := compiledCell{kind: cell.Kind, val: cell.Val}
		c.aid, c.known = g.Attrs.Lookup(attr)
		if c.known && cell.Kind == Const {
			c.dom = g.ActiveDomain(attr)
		}
		cp = append(cp, c)
	}
	return cp
}

func (cp compiledPattern) closeness(g *graph.Graph, v graph.NodeID) float64 {
	if len(cp) == 0 {
		return 0
	}
	var total float64
	for _, c := range cp {
		if c.kind == Wildcard {
			total++
			continue
		}
		if !c.known {
			continue
		}
		val, ok := g.AttrByID(v, c.aid)
		if !ok {
			continue
		}
		if c.kind == Var {
			total++
		} else {
			total += cellSim(val, c.val, c.dom)
		}
	}
	return total / float64(len(cp))
}

// boundSlack widens bound's credit floor past the rounding of
// closeness's sum and of θ·len(cp): it can only add candidates, each of
// which closeness then scores exactly.
const boundSlack = 1e-9

// bound returns the codes [lo, hi] whose postings hold every node whose
// closeness to the pattern reaches theta (lo > hi when no node's does),
// and false when the postings cannot bound the pattern. Every cell
// credits a node at most 1, so a node reaching theta earns at least
// need = θ·len − (len−1) from each cell; when need is positive, a Const
// cell admits only the codes whose similarity reaches need
// (compiledCell.reach), and the range is that of the cell admitting the
// fewest nodes. Var and wildcard cells admit every node, and so do
// string cells below θ = 1.
func (cp compiledPattern) bound(codes *graph.Codes, theta float64) (lo, hi int32, ok bool) {
	if len(cp) == 0 {
		return 0, -1, theta > 0 // closeness is 0
	}
	need := theta*float64(len(cp)) - float64(len(cp)-1) - boundSlack
	if !(need > 0) {
		return 0, -1, false
	}
	for _, c := range cp {
		if c.kind != Const {
			continue
		}
		l, h, reached := c.reach(codes, theta, need)
		if reached && (!ok || len(codes.Postings(l, h)) < len(codes.Postings(lo, hi))) {
			ok, lo, hi = true, l, h
		}
	}
	return lo, hi, ok
}

// reach returns the codes [lo, hi] of the values whose cellSim against
// the cell's constant reaches need (lo > hi when none does), and false
// when they are not one code range that can be found.
//
// A string scores 1 only when equal to the constant — given that the
// constant is valid UTF-8 free of U+FFFD, so that no other byte string
// decodes to its runes — and below 1 by at least 1/len, which no
// rounding of a sum hides; so under θ ≥ 1 its codes are Interval's
// equality run, and below θ = 1 the cell bounds nothing. A number's
// cellSim falls as |v − c| grows, so with c and the domain's range
// finite (no NaN arises) the numbers reaching need are one run of the
// ascending numeric codes around c, found by binary search with cellSim
// itself.
func (c compiledCell) reach(codes *graph.Codes, theta, need float64) (lo, hi int32, ok bool) {
	if !c.known {
		return 0, -1, true // the cell credits nothing
	}
	switch c.val.Kind {
	case graph.String:
		if theta < 1 || !utf8.ValidString(c.val.Str) || strings.ContainsRune(c.val.Str, utf8.RuneError) {
			return 0, -1, false
		}
		return codes.Interval(c.aid, graph.EQ, c.val)
	case graph.Number:
		rng := c.dom.Range()
		if math.IsNaN(c.val.Num) || math.IsInf(c.val.Num, 0) || math.IsInf(rng, 0) {
			return 0, -1, false
		}
		vals := c.dom.Values[:c.dom.Numbers]
		for len(vals) > 0 && math.IsNaN(vals[len(vals)-1].Num) {
			vals = vals[:len(vals)-1] // NaNs sort last and score NaN
		}
		reaches := func(i int) bool { return cellSim(vals[i], c.val, c.dom) >= need }
		at := sort.Search(len(vals), func(i int) bool { return vals[i].Num >= c.val.Num })
		first := sort.Search(at, reaches)
		end := at + sort.Search(len(vals)-at, func(i int) bool { return !reaches(at + i) })
		base, _ := codes.NumberCodes(c.aid)
		return base + int32(first), base + int32(end) - 1, true
	}
	return 0, -1, false
}
