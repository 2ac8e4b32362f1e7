package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Domain describes the active domain adom(A, G) of one attribute: the
// finite set of distinct values A takes in G, plus the numeric range the
// paper's operator cost model normalizes literal modifications by
// (Table 1: cost of RxL/RfL is 1 + |c'−c| / range(A)).
type Domain struct {
	Attr string
	// Values holds the distinct values, strictly ascending by
	// Value.Compare: Numbers before Strings.
	Values  []Value
	NumMin  float64
	NumMax  float64
	Numbers int // how many of Values are numeric: Values[:Numbers]
}

// Range returns the numeric spread max−min of the domain, or 1 when the
// domain has fewer than two numeric values, so cost normalization is
// always well defined. It is +Inf when the spread overflows (values near
// ±MaxFloat64); Distance normalizes by it without overflowing.
func (d *Domain) Range() float64 {
	if d == nil || d.Numbers < 2 || d.NumMax <= d.NumMin {
		return 1
	}
	return d.NumMax - d.NumMin
}

// Distance returns |a−b| / Range(), the normalized difference of two
// numbers of the attribute that closeness and the RxL/RfL cost read.
// Where |a−b| or the range overflows, it divides the halves instead:
// halving a number that large is exact, so the ratio is the one the
// exact arithmetic gives, up to its last rounding.
func (d *Domain) Distance(a, b float64) float64 {
	diff, r := math.Abs(a-b), d.Range()
	if math.IsInf(diff, 0) || math.IsInf(r, 0) {
		diff = math.Abs(a/2 - b/2)
		if math.IsInf(r, 0) {
			r = d.NumMax/2 - d.NumMin/2
		} else {
			r /= 2
		}
	}
	return diff / r
}

// ActiveDomain returns adom(A, G) for the attribute name: the
// dictionary its cells' codes index (Graph.Value). The result is shared;
// callers must not mutate it.
func (g *Graph) ActiveDomain(name string) *Domain {
	if aid, ok := g.Attrs.Lookup(name); ok {
		if d := g.Codes().Domain(aid); d != nil {
			return d
		}
	}
	return &Domain{Attr: name}
}

// WarmCaches computes the diameter, the one derived structure a Graph
// builds lazily: call it once after construction so no reader stalls
// behind the double BFS sweep.
func (g *Graph) WarmCaches() {
	g.Diameter()
}

// AttrCode is one cell of the attribute column: the 8-byte image of an
// AttrValue, its value replaced by the value's code.
type AttrCode struct {
	Attr int32
	Code int32
}

// Codes is a graph's attribute column, the only place its tuples are
// stored: every cell as a value code, and the active domains as the
// dictionary. The code of a cell is its attribute's base plus the index
// of its value in Domain.Values, so one attribute's codes are
// contiguous, ordered as its domain is, and equal codes mean equal
// cells. The column is 8 bytes per cell, and it is also the wire form: a
// snapshot stores the domains in code order and the cells as (attr,
// code) pairs, so ReadSnapshot reads the column as it is, and
// Builder.Build codes the builder's tuples in one pass (buildCodes).
//
// Beside the column sit its postings, derived from it and never stored:
// for each code, the ascending ids of the nodes whose cell carries it
// (Postings). They cost one 4-byte id per cell and one offset per code,
// and let a reader that knows which codes it wants visit only the nodes
// that carry them.
//
// A graph admits only canonical values (Value.Canonical) and attribute
// names free of "=", so code identity is exactly the engine's equality
// test (same kind, Compare == 0), code order exactly Compare's order,
// and no two codes render alike as "name=value" (KeyRanks).
type Codes struct {
	off     []int32    // len NumNodes()+1; tuple of v is cells[off[v]:off[v+1]]
	cells   []AttrCode // all node tuples, each sorted by Attr
	base    []int32    // by attribute id, one extra: codes of a are [base[a], base[a+1])
	doms    []*Domain  // by attribute id; nil when no node carries it
	post    []NodeID   // the cells' node ids grouped by code, ascending within a code
	postOff []int32    // len Len()+1; the nodes carrying code c are post[postOff[c]:postOff[c+1]]

	keys struct { // see KeyRanks
		once sync.Once
		rank []int32
	}
}

// Codes returns the graph's attribute column. The result is shared and
// immutable.
func (g *Graph) Codes() *Codes { return g.codes }

// Len returns the number of codes: the domains' sizes summed.
func (c *Codes) Len() int { return int(c.base[len(c.base)-1]) }

// Domain returns the active domain of attribute id attr, nil when no
// node carries it.
func (c *Codes) Domain(attr int32) *Domain {
	if int(attr) >= len(c.doms) {
		return nil // interned after the column was built
	}
	return c.doms[attr]
}

// NumberCodes returns the codes [lo, hi) of attribute id attr's numeric
// values.
func (c *Codes) NumberCodes(attr int32) (lo, hi int32) {
	if d := c.Domain(attr); d != nil {
		return c.base[attr], c.base[attr] + int32(d.Numbers)
	}
	return 0, 0
}

// Postings returns the nodes whose cell carries one of the codes
// [lo, hi], grouped by code in code order and ascending within each
// code, so ascending when lo == hi; nil when lo > hi. The result is
// shared; the caller must not mutate it.
func (c *Codes) Postings(lo, hi int32) []NodeID {
	if lo > hi {
		return nil
	}
	return c.post[c.postOff[lo]:c.postOff[hi+1]]
}

// buildPostings derives the postings from the cells and offsets by one
// counting sort: the nodes are visited in id order, so each code's run
// comes out ascending.
func (c *Codes) buildPostings() {
	c.postOff = make([]int32, c.Len()+1)
	for _, cell := range c.cells {
		c.postOff[cell.Code+1]++
	}
	for i := 1; i < len(c.postOff); i++ {
		c.postOff[i] += c.postOff[i-1]
	}
	c.post = make([]NodeID, len(c.cells))
	next := slices.Clone(c.postOff[:len(c.postOff)-1])
	for v := 0; v+1 < len(c.off); v++ {
		for _, cell := range c.cells[c.off[v]:c.off[v+1]] {
			c.post[next[cell.Code]] = NodeID(v)
			next[cell.Code]++
		}
	}
}

// Interval returns the codes [lo, hi] of the values v of attribute id
// attr for which op.Holds(v, k); lo > hi when there are none.
//
// Holds is false across kinds, so the interval lies inside the run of
// k's kind (empty for a k of neither kind); inside that run values
// ascend strictly by Compare, so the values below, equal to and above k
// are three consecutive runs, found by searching k with the same
// Compare that Holds calls.
func (c *Codes) Interval(attr int32, op Op, k Value) (lo, hi int32) {
	d := c.Domain(attr)
	if d == nil || k.Kind > String {
		return 0, -1
	}
	first, vals := c.base[attr], d.Values[:d.Numbers]
	if k.Kind == String {
		first, vals = first+int32(d.Numbers), d.Values[d.Numbers:]
	}
	below := int32(sort.Search(len(vals), func(i int) bool { return vals[i].Compare(k) >= 0 }))
	through := int32(sort.Search(len(vals), func(i int) bool { return vals[i].Compare(k) > 0 }))
	last := first + int32(len(vals)) - 1
	switch op {
	case EQ:
		return first + below, first + through - 1
	case LT:
		return first, first + below - 1
	case LE:
		return first, first + through - 1
	case GT:
		return first + through, last
	case GE:
		return first + below, last
	}
	return 0, -1
}

// KeyRanks orders the codes by the text "attr=value#n" (a Number) or
// "attr=value#s" (a String) of the cells they stand for: rank[c] is the
// place of c's text among all codes' texts, in byte order. No two codes
// render alike: names hold no "=", and canonical values of one kind
// render apart. This is the order picky-operator generation has always
// broken count ties by; ranking every code once per column lets it
// compare integers instead of rendering per question. Built on first
// call (rendering is too slow for WarmCaches) and shared; the caller
// must not mutate the slice.
func (c *Codes) KeyRanks() []int32 {
	c.keys.once.Do(func() {
		n := c.Len()
		texts := make([]string, n)
		for a, d := range c.doms {
			if d == nil {
				continue
			}
			for i, v := range d.Values {
				kind := "#s"
				if v.Kind == Number {
					kind = "#n"
				}
				texts[int(c.base[a])+i] = d.Attr + "=" + v.String() + kind
			}
		}
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(x, y int32) int { return strings.Compare(texts[x], texts[y]) })
		rank := make([]int32, n)
		for i, code := range order {
			rank[code] = int32(i)
		}
		c.keys.rank = rank
	})
	return c.keys.rank
}

// summarize fills in Numbers, NumMin and NumMax from d.Values, which
// ascend by Compare.
func (d *Domain) summarize() {
	for _, v := range d.Values {
		if v.Kind == Number {
			d.Numbers++
		}
	}
	if d.Numbers > 0 {
		d.NumMin, d.NumMax = d.Values[0].Num, d.Values[d.Numbers-1].Num
	}
}

// checkAttrNames refuses an attribute name holding "=", whose
// "name=value" renderings could collide with another attribute's:
// "k=v"="w" and "k"="v=w" render alike.
func checkAttrNames(attrs *Names) error {
	for a := 1; a < attrs.Len(); a++ {
		if name := attrs.Name(int32(a)); strings.Contains(name, "=") {
			return fmt.Errorf("attribute name %q holds \"=\"", name)
		}
	}
	return nil
}

// buildCodes canonicalizes the builder's tuples and codes them in one
// scan: the active domains and the code column. It is the one place
// values become codes, and it refuses what Value.Canonical and
// checkAttrNames refuse.
func (b *Builder) buildCodes() (*Codes, error) {
	if err := checkAttrNames(&b.Attrs.Names); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	nAttrs := b.Attrs.Len()
	c := &Codes{
		off:   b.attrOff,
		cells: make([]AttrCode, len(b.attrArena)),
		base:  make([]int32, nAttrs+1),
		doms:  make([]*Domain, nAttrs),
	}
	// One hashing pass numbers the distinct cells in order of first
	// appearance; the column holds those numbers until the domains are
	// sorted and each number has its code.
	seen := make(map[AttrValue]int32)
	var vals []Value                  // by first-appearance number
	byAttr := make([][]int32, nAttrs) // the numbers of each attribute's values
	for i, av := range b.attrArena {
		val, err := av.Val.Canonical()
		if err != nil {
			v, _ := slices.BinarySearch(b.attrOff, int32(i+1))
			return nil, fmt.Errorf("graph: attribute %q of node %d: %w", b.Attrs.Name(av.Attr), v-1, err)
		}
		av.Val = val
		n, dup := seen[av]
		if !dup {
			n = int32(len(vals))
			seen[av] = n
			vals = append(vals, val)
			byAttr[av.Attr] = append(byAttr[av.Attr], n)
		}
		c.cells[i] = AttrCode{Attr: av.Attr, Code: n}
	}
	codeOf := make([]int32, len(vals))
	for a, ns := range byAttr {
		c.base[a+1] = c.base[a] + int32(len(ns))
		if len(ns) == 0 {
			continue
		}
		slices.SortFunc(ns, func(x, y int32) int { return vals[x].Compare(vals[y]) })
		d := &Domain{Attr: b.Attrs.Name(int32(a)), Values: make([]Value, len(ns))}
		for i, n := range ns {
			d.Values[i] = vals[n]
			codeOf[n] = c.base[a] + int32(i)
		}
		d.summarize()
		c.doms[a] = d
	}
	for i := range c.cells {
		c.cells[i].Code = codeOf[c.cells[i].Code]
	}
	c.buildPostings()
	return c, nil
}
