package graph

import (
	"fmt"
	"math"
	"slices"
)

// Eccentricity exposes the sweep Diameter runs.
func (g *Graph) Eccentricity(v NodeID) (int, NodeID) { return g.eccentricity(v) }

// CodesDiff describes the first difference between two code columns, or
// returns "" when they are equal part for part: offsets, cells, bases,
// domains (values by bit pattern), irregular flags and KeyRanks.
func CodesDiff(a, b *Codes) string {
	switch {
	case !slices.Equal(a.off, b.off):
		return "offsets differ"
	case !slices.Equal(a.cells, b.cells):
		return "cells differ"
	case !slices.Equal(a.base, b.base):
		return fmt.Sprintf("bases differ: %v vs %v", a.base, b.base)
	case !slices.Equal(a.irregular, b.irregular):
		return fmt.Sprintf("irregular flags differ: %v vs %v", a.irregular, b.irregular)
	case len(a.doms) != len(b.doms):
		return "domain counts differ"
	}
	for i := range a.doms {
		if msg := domainDiff(a.doms[i], b.doms[i]); msg != "" {
			return fmt.Sprintf("attribute %d: %s", i, msg)
		}
	}
	ar, ag := a.KeyRanks()
	br, bg := b.KeyRanks()
	if !slices.Equal(ar, br) || !slices.Equal(ag, bg) {
		return "KeyRanks differ"
	}
	return ""
}

func domainDiff(a, b *Domain) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("domain %v vs %v", a, b)
		}
		return ""
	}
	bits := math.Float64bits
	if a.Attr != b.Attr || a.Numbers != b.Numbers || bits(a.NumMin) != bits(b.NumMin) ||
		bits(a.NumMax) != bits(b.NumMax) || len(a.Values) != len(b.Values) {
		return fmt.Sprintf("domain %+v vs %+v", *a, *b)
	}
	for i, v := range a.Values {
		w := b.Values[i]
		if v.Kind != w.Kind || bits(v.Num) != bits(w.Num) || v.Str != w.Str {
			return fmt.Sprintf("value %d: %#v vs %#v", i, v, w)
		}
	}
	return ""
}
