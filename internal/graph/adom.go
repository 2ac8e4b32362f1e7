package graph

import (
	"cmp"
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
	// Values holds the distinct values: Numbers before Strings, numbers
	// ascending with NaN last, strings ascending. Wherever Value.Compare
	// tells two values apart it agrees with this order; the values it
	// cannot tell apart (0 and -0, payload a kind ignores) sit next to
	// each other.
	Values  []Value
	NumMin  float64 // over the non-NaN numbers
	NumMax  float64
	Numbers int // how many of Values are numeric: Values[:Numbers]
}

// Range returns the numeric spread max−min of the domain, or 1 when the
// domain has fewer than two numeric values, so cost normalization is
// always well defined.
func (d *Domain) Range() float64 {
	if d == nil || d.Numbers < 2 || d.NumMax <= d.NumMin {
		return 1
	}
	return d.NumMax - d.NumMin
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
// Code identity is exactly the engine's equality test (same kind,
// Compare == 0) and code order exactly Compare's order on every
// attribute that is not Irregular. An attribute is irregular when its
// domain holds two values Compare calls equal — -0 beside 0, a NaN
// (which Compare cannot order against any number), two Numbers differing
// only in Str or two Strings differing only in Num — or a value of
// neither kind, or when its "name=value" renderings can collide with
// another attribute's (a name containing "=", or a name that followed by
// "=" begins another's). Readers test the cells of an irregular
// attribute by value.
type Codes struct {
	off       []int32    // len NumNodes()+1; tuple of v is cells[off[v]:off[v+1]]
	cells     []AttrCode // all node tuples, each sorted by Attr
	base      []int32    // by attribute id, one extra: codes of a are [base[a], base[a+1])
	doms      []*Domain  // by attribute id; nil when no node carries it
	irregular []bool     // by attribute id

	keys struct { // see KeyRanks
		once        sync.Once
		rank, group []int32
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

// Irregular reports whether the cells of attribute id attr must be
// tested by value (see Codes).
func (c *Codes) Irregular(attr int32) bool { return c.irregular[attr] }

// NumberCodes returns the codes [lo, hi) of attribute id attr's numeric
// values, NaN included.
func (c *Codes) NumberCodes(attr int32) (lo, hi int32) {
	if d := c.Domain(attr); d != nil {
		return c.base[attr], c.base[attr] + int32(d.Numbers)
	}
	return 0, 0
}

// Interval returns the codes [lo, hi] of the values v of attribute id
// attr for which op.Holds(v, k); lo > hi when there are none. ok is
// false when the attribute is irregular, or k of neither kind, and the
// test cannot be made on codes.
//
// Holds is false across kinds, so the interval lies inside the run of
// k's kind; inside that run values ascend strictly by Compare (the
// attribute being regular), so the values below, equal to and above k
// are three consecutive runs, found by searching k with the same
// Compare that Holds calls.
func (c *Codes) Interval(attr int32, op Op, k Value) (lo, hi int32, ok bool) {
	d := c.Domain(attr)
	if d == nil {
		return 0, -1, true
	}
	if c.irregular[attr] || k.Kind > String {
		return 0, -1, false
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
		return first + below, first + through - 1, true
	case LT:
		return first, first + below - 1, true
	case LE:
		return first, first + through - 1, true
	case GT:
		return first + through, last, true
	case GE:
		return first + below, last, true
	}
	return 0, -1, true
}

// KeyRanks orders the codes by the text "attr=value#n" (a Number) or
// "attr=value#s" (anything else) of the cells they stand for: rank[c] is
// the dense rank of c's text among all codes' texts, in byte order, and
// group[c] the smallest code whose text is c's — c itself, except for
// some codes of irregular attributes. This is the order picky-operator
// generation has always broken count ties by, and the text the identity
// it has always grouped AddL candidates under; ranking every code once
// per column lets it compare integers instead of rendering per question.
// Built on first call (rendering is too slow for WarmCaches) and shared;
// the caller must not mutate either slice.
func (c *Codes) KeyRanks() (rank, group []int32) {
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
		slices.SortFunc(order, func(x, y int32) int {
			if c := strings.Compare(texts[x], texts[y]); c != 0 {
				return c
			}
			return int(x - y)
		})
		rank, group := make([]int32, n), make([]int32, n)
		for i, code := range order {
			if i > 0 && texts[code] == texts[order[i-1]] {
				rank[code], group[code] = rank[order[i-1]], group[order[i-1]]
			} else {
				rank[code], group[code] = int32(i), code
			}
		}
		c.keys.rank, c.keys.group = rank, group
	})
	return c.keys.rank, c.keys.group
}

// cellKey is the identity a cell is de-duplicated under: every bit of
// the value, except that all NaNs are one (no two NaN cells are == as
// floats, so a float-keyed map would give each its own entry).
type cellKey struct {
	attr int32
	kind ValueKind
	bits uint64
	str  string
}

var canonicalNaN = math.Float64bits(math.NaN())

// domainOrder is the total order of Domain.Values: Compare's, with NaN
// after every number, and the values Compare cannot tell apart in a
// fixed order of their own.
func domainOrder(a, b Value) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	var c int
	if a.Kind == Number {
		if aNaN, bNaN := a.Num != a.Num, b.Num != b.Num; aNaN != bNaN {
			if aNaN {
				return 1
			}
			return -1
		}
		c = cmp.Compare(a.Num, b.Num)
	} else {
		c = strings.Compare(a.Str, b.Str)
	}
	if c != 0 {
		return c
	}
	if c := cmp.Compare(math.Float64bits(a.Num), math.Float64bits(b.Num)); c != 0 {
		return c
	}
	return strings.Compare(a.Str, b.Str)
}

// summarize fills in Numbers, NumMin and NumMax from d.Values, which
// are in domain order, and reports whether the values alone make the
// attribute irregular (see Codes).
func (d *Domain) summarize() (irregular bool) {
	for i, v := range d.Values {
		if v.Kind == Number {
			d.Numbers++
		}
		if v.Kind > String || (v.Kind == Number && v.Num != v.Num) ||
			(i > 0 && v.Compare(d.Values[i-1]) == 0) {
			irregular = true
		}
	}
	// The numbers ascend with the NaNs last.
	finite := d.Values[:d.Numbers]
	for len(finite) > 0 && finite[len(finite)-1].Num != finite[len(finite)-1].Num {
		finite = finite[:len(finite)-1]
	}
	if len(finite) > 0 {
		d.NumMin, d.NumMax = finite[0].Num, finite[len(finite)-1].Num
	}
	return irregular
}

// markNameCollisions marks irregular the attributes whose "name=value"
// renderings can collide: "k=v"="w" and "k"="v=w" render alike.
func markNameCollisions(attrs *Interner, irregular []bool) {
	for a := 1; a < attrs.Len(); a++ {
		name := attrs.Name(int32(a))
		for i := range name {
			if name[i] != '=' {
				continue
			}
			irregular[a] = true
			if p, ok := attrs.Lookup(name[:i]); ok {
				irregular[p] = true
			}
		}
	}
}

// buildCodes scans the builder's tuples once and codes them: the
// active domains and the code column. It is the one place values become
// codes.
func (b *Builder) buildCodes() *Codes {
	nAttrs := b.Attrs.Len()
	c := &Codes{
		off:       b.attrOff,
		cells:     make([]AttrCode, len(b.attrArena)),
		base:      make([]int32, nAttrs+1),
		doms:      make([]*Domain, nAttrs),
		irregular: make([]bool, nAttrs),
	}
	// One hashing pass numbers the distinct cells in order of first
	// appearance; the column holds those numbers until the domains are
	// sorted and each number has its code.
	seen := make(map[cellKey]int32)
	var vals []Value                  // by first-appearance number
	byAttr := make([][]int32, nAttrs) // the numbers of each attribute's values
	for i, av := range b.attrArena {
		k := cellKey{av.Attr, av.Val.Kind, math.Float64bits(av.Val.Num), av.Val.Str}
		if av.Val.Num != av.Val.Num {
			k.bits = canonicalNaN
		}
		n, dup := seen[k]
		if !dup {
			n = int32(len(vals))
			seen[k] = n
			vals = append(vals, av.Val)
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
		slices.SortFunc(ns, func(x, y int32) int { return domainOrder(vals[x], vals[y]) })
		d := &Domain{Attr: b.Attrs.Name(int32(a)), Values: make([]Value, len(ns))}
		for i, n := range ns {
			d.Values[i] = vals[n]
			codeOf[n] = c.base[a] + int32(i)
		}
		c.irregular[a] = d.summarize()
		c.doms[a] = d
	}
	for i := range c.cells {
		c.cells[i].Code = codeOf[c.cells[i].Code]
	}
	markNameCollisions(b.Attrs, c.irregular)
	return c
}
