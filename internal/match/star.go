// Package match implements pattern-query evaluation (P-homomorphism
// with edge-to-path matching, §2.1) and the star-view machinery of
// §2.3/§5.2: queries decompose into star queries whose materialized
// star tables are cached and reused across the highly similar query
// rewrites a Q-Chase produces.
package match

import (
	"encoding/binary"
	"sort"

	"wqe/internal/graph"
	"wqe/internal/query"
)

// StarEdge is one pattern edge of a star, seen from the center.
type StarEdge struct {
	EdgeIdx int          // index into the owning query's Edges
	Other   query.NodeID // the non-center endpoint
	Out     bool         // true when the edge is center → Other
	Bound   int
}

// StarQuery is one star of a star view Q.S: a center, the pattern edges
// incident to it, and — when the focus is not the center or one of its
// neighbors — an augmented edge to the focus labeled with their
// distance in Q.
type StarQuery struct {
	Center   query.NodeID
	Edges    []StarEdge
	HasFocus bool // center or a neighbor is the focus
	AugDist  int  // augmented-edge label; 0 when HasFocus
}

// Decompose computes a star view of q: a set of stars, greedily chosen
// by uncovered-edge count, covering every node and edge (§2.3). The
// focus participates in every star either directly or via an augmented
// edge.
func Decompose(q *query.Query) []*StarQuery {
	return decompose(q, q.FocusDist(nil))
}

// decompose is Decompose given dist, q.FocusDist.
func decompose(q *query.Query, dist []int) []*StarQuery {
	covered := make([]bool, len(q.Edges))
	nodeCovered := make([]bool, len(q.Nodes))
	var stars []*StarQuery

	uncoveredAt := func(u query.NodeID) int {
		n := 0
		for i, e := range q.Edges {
			if !covered[i] && (e.From == u || e.To == u) {
				n++
			}
		}
		return n
	}

	for {
		best, bestN := query.NodeID(-1), 0
		for u := range q.Nodes {
			if n := uncoveredAt(query.NodeID(u)); n > bestN {
				best, bestN = query.NodeID(u), n
			}
		}
		if bestN == 0 {
			break
		}
		stars = append(stars, makeStar(q, best, dist))
		nodeCovered[best] = true
		for i, e := range q.Edges {
			if e.From == best || e.To == best {
				covered[i] = true
				nodeCovered[e.From] = true
				nodeCovered[e.To] = true
			}
		}
	}
	// The single-node query gets a singleton star for its focus.
	// Isolated non-focus nodes pose no constraint (they arise from RmE
	// detaching an endpoint; see query.IsolatedIgnored) and get none.
	for u := range q.Nodes {
		if !nodeCovered[u] && len(q.IncidentEdges(query.NodeID(u))) == 0 &&
			query.NodeID(u) == q.Focus {
			stars = append(stars, makeStar(q, query.NodeID(u), dist))
		}
	}
	return stars
}

// makeStar builds the star centered at center; dist is q.FocusDist.
func makeStar(q *query.Query, center query.NodeID, dist []int) *StarQuery {
	s := &StarQuery{Center: center}
	hasFocus := center == q.Focus
	for i, e := range q.Edges {
		switch center {
		case e.From:
			s.Edges = append(s.Edges, StarEdge{EdgeIdx: i, Other: e.To, Out: true, Bound: e.Bound})
			if e.To == q.Focus {
				hasFocus = true
			}
		case e.To:
			s.Edges = append(s.Edges, StarEdge{EdgeIdx: i, Other: e.From, Out: false, Bound: e.Bound})
			if e.From == q.Focus {
				hasFocus = true
			}
		}
	}
	s.HasFocus = hasFocus
	if !hasFocus {
		d := dist[center]
		if d == graph.Unreachable {
			// Disconnected from the focus (possible after RmE): treat as
			// focus-agnostic; the star then constrains its own nodes only.
			d = 0
		}
		s.AugDist = d
	}
	return s
}

// Key returns a structural cache key for the star within query q: it
// encodes the center's matching signature, each star edge's direction,
// bound, and endpoint signature, and the augmented distance — but no
// pattern-node ids, so structurally identical stars of different
// rewrites share cache entries. Focus positions are keyed by label
// only: materialized tables store label-filtered focus columns and
// apply focus literals at read time, so rewrites differing only in
// focus predicates share one table.
func (s *StarQuery) Key(q *query.Query) string { return string(s.AppendKey(nil, q)) }

// AppendKey appends the structural cache key (see Key) to dst. Match
// builds one key per star per evaluation on the Q-Chase hot path, behind
// the graph prefix in one buffer.
func (s *StarQuery) AppendKey(dst []byte, q *query.Query) []byte {
	dst = appendSig(dst, q, s.Center)
	// Edge signatures must be order-insensitive (a cached table may come
	// from a rewrite whose edges were ordered differently), so they are
	// sorted before concatenation and need individual strings.
	edges := make([]string, len(s.Edges))
	for i, e := range s.Edges {
		edges[i] = edgeSig(q, e)
	}
	sort.Strings(edges)
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		dst = append(dst, e...)
	}
	if !s.HasFocus {
		dst = binary.AppendUvarint(dst, uint64(s.AugDist))
		dst = appendSig(dst, q, q.Focus)
	}
	return dst
}

// edgeSig encodes one star edge's structural signature: direction,
// bound, and the non-center endpoint's matching signature.
func edgeSig(q *query.Query, e StarEdge) string {
	dir := byte('<')
	if e.Out {
		dir = '>'
	}
	var buf [64]byte // most signatures fit, and then only the string is allocated
	sig := binary.AppendUvarint(append(buf[:0], dir), uint64(e.Bound))
	return string(appendSig(sig, q, e.Other))
}

// appendSig appends what a star table filters the positions of pattern
// node u by: the node's signature (query.AppendNodeSig), or for the
// focus, which tables store literal-agnostic, its label alone.
func appendSig(dst []byte, q *query.Query, u query.NodeID) []byte {
	n := &q.Nodes[u]
	if u == q.Focus {
		return graph.AppendKeyString(append(dst, '*'), n.Label)
	}
	return query.AppendNodeSig(append(dst, 'n'), n)
}
