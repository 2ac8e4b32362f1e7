package graph

import (
	"fmt"
	"math"
	"slices"
)

// Eccentricity exposes the sweep Diameter runs.
func (g *Graph) Eccentricity(v NodeID) (int, NodeID) { return g.eccentricity(v) }

// MustBuild returns b's graph, for inputs the door admits by
// construction; it panics where Build refuses.
func MustBuild(b *Builder) *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// CodesDiff describes the first difference between two code columns, or
// returns "" when they are equal part for part: offsets, cells, bases,
// domains (values by bit pattern), postings and KeyRanks.
func CodesDiff(a, b *Codes) string {
	switch {
	case !slices.Equal(a.off, b.off):
		return "offsets differ"
	case !slices.Equal(a.cells, b.cells):
		return "cells differ"
	case !slices.Equal(a.base, b.base):
		return fmt.Sprintf("bases differ: %v vs %v", a.base, b.base)
	case !slices.Equal(a.postOff, b.postOff) || !slices.Equal(a.post, b.post):
		return "postings differ"
	case len(a.doms) != len(b.doms):
		return "domain counts differ"
	}
	for i := range a.doms {
		if msg := domainDiff(a.doms[i], b.doms[i]); msg != "" {
			return fmt.Sprintf("attribute %d: %s", i, msg)
		}
	}
	if !slices.Equal(a.KeyRanks(), b.KeyRanks()) {
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
