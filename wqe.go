// Package wqe answers Why-questions by exemplars over attributed
// graphs — a from-scratch Go implementation of "Answering Why-questions
// by Exemplars in Attributed Graphs" (Namaki, Song, Wu, Yang,
// SIGMOD 2019).
//
// Given a graph pattern query Q with a focus node, its answers Q(G),
// and an exemplar E = (T, C) describing desired answers, the library
// computes a budgeted query rewrite Q' whose answers are as close as
// possible to the entities the exemplar characterizes, together with
// differential-table lineage explaining every change.
//
// The package is a façade: it re-exports the stable surface of the
// internal packages.
//
//	b := wqe.NewGraphBuilder()
//	b.AddNode("Cellphone", map[string]wqe.Value{
//	    "Price": wqe.N(840),
//	})
//	g, err := b.Build()
//	if err != nil { ... }
//	q := wqe.NewQuery()
//	u := q.AddNode("Cellphone", wqe.Literal{Attr: "Price", Op: wqe.GE, Val: wqe.N(840)})
//	q.Focus = u
//	e := &wqe.Exemplar{Tuples: []wqe.TuplePattern{{"Price": wqe.ConstCell(wqe.N(790))}}}
//	w, err := wqe.NewWhy(g, q, e, wqe.DefaultConfig())
//	if err != nil { ... }
//	answer := w.AnsW()
//	fmt.Println(answer.Ops, answer.Matches)
//
// Entry points:
//
//   - Why.AnsW — anytime exact rewrite search (Fig 5);
//   - Why.TopK — top-k query suggestion (§6.2);
//   - Why.AnsHeu / Why.AnsHeuB — beam-search heuristics (§5.5);
//   - Why.ApxWhyM — Why-Many refinement (Theorem 6.1);
//   - Why.AnsWE — Why-Empty removal-only rewriting (Lemma 6.2);
//   - Why.FMAnsW — frequent-pattern-mining baseline.
package wqe

import (
	"wqe/internal/chase"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// Graph model.
type (
	// Graph is a directed, attributed graph G = (V, E, L, f_A), made
	// once by GraphBuilder.Build and read-only afterwards.
	Graph = graph.Graph
	// GraphBuilder takes a graph's nodes and edges, then builds it.
	GraphBuilder = graph.Builder
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
	// Value is a typed attribute value (number or string).
	Value = graph.Value
	// Domain is an attribute's active domain adom(A, G).
	Domain = graph.Domain
)

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// N returns a numeric attribute value.
func N(v float64) Value { return graph.N(v) }

// S returns a string attribute value.
func S(v string) Value { return graph.S(v) }

// ParseValue parses "$800", "25%", "6.2" as numbers and anything else,
// "NaN" included, as a string.
func ParseValue(s string) Value { return graph.ParseValue(s) }

// Comparison operators for literals and constraints.
const (
	EQ = graph.EQ
	LT = graph.LT
	LE = graph.LE
	GT = graph.GT
	GE = graph.GE
)

// Query model.
type (
	// Query is a graph pattern query with a designated focus node.
	Query = query.Query
	// QueryNodeID indexes a pattern node.
	QueryNodeID = query.NodeID
	// Literal is a search predicate u.A op c on a pattern node.
	Literal = query.Literal
)

// NewQuery returns an empty pattern query.
func NewQuery() *Query { return query.New() }

// Exemplar model.
type (
	// Exemplar is E = (T, C): tuple patterns plus constraints.
	Exemplar = exemplar.Exemplar
	// TuplePattern is one row of T.
	TuplePattern = exemplar.TuplePattern
	// Cell is one tuple-pattern entry (constant, variable, wildcard).
	Cell = exemplar.Cell
	// Constraint is one literal of C.
	Constraint = exemplar.Constraint
)

// ConstCell returns a constant tuple-pattern cell.
func ConstCell(v Value) Cell { return exemplar.C(v) }

// VarCell returns a named-variable cell.
func VarCell(name string) Cell { return exemplar.V(name) }

// WildcardCell returns the '_' cell.
func WildcardCell() Cell { return exemplar.W() }

// ExemplarFromEntities builds the entity-list form of an exemplar: one
// tuple pattern per entity over the listed attributes (all attributes
// when attrs is empty).
func ExemplarFromEntities(g *Graph, entities []NodeID, attrs []string) *Exemplar {
	return exemplar.FromEntities(g, entities, attrs)
}

// Rewriting and chase.
type (
	// Config tunes the Q-Chase algorithms. Its Search part (budget B,
	// bound b_m, θ, λ, pruning, operator caps, step cap, seed) decides
	// the answer; its Engine part (workers, star-cache and answer-memo
	// capacities, 0 = none) and Limits part (time limit, deadline,
	// cancel, OnImprove) only how fast it arrives and where an anytime
	// run stops. Fields are promoted: cfg.Budget, cfg.CacheCap.
	Config = chase.Config
	// Why is a compiled Why-question; its methods run the algorithms.
	Why = chase.Why
	// Answer is a query-rewrite answer with lineage.
	Answer = chase.Answer
	// DiffEntry is one differential-table row (operator → answer delta).
	DiffEntry = chase.DiffEntry
	// Op is an atomic rewrite operator (Table 1).
	Op = ops.Op
	// OpSequence is an operator sequence with cost and normal form.
	OpSequence = ops.Sequence
	// Relevance classifies candidates as RM/IM/RC/IC.
	Relevance = chase.Relevance
	// Stats reports one algorithm run's search effort.
	Stats = chase.Stats
)

// DefaultConfig mirrors the paper's experimental defaults (B = 3,
// b_m = 3, θ = 1, λ = 1, star-view caching and pruning on, no answer
// memo).
func DefaultConfig() Config { return chase.DefaultConfig() }

// NewWhy compiles a Why-question W(Q(u_o), E) over g.
func NewWhy(g *Graph, q *Query, e *Exemplar, cfg Config) (*Why, error) {
	return chase.NewWhy(g, q, e, cfg)
}

// Session supports the exploratory query → response → exemplar →
// rewrite loop (Fig 3), keeping the distance oracle and star-view cache
// warm across consecutive Why-questions on one graph.
type Session = chase.Session

// NewSession builds an exploration session over g.
func NewSession(g *Graph, cfg Config) *Session { return chase.NewSession(g, cfg) }

// MultiFocusAnswer pairs a focus node with its rewrite, as returned by
// Session.AskMultiFocus (the appendix's several-focus extension).
type MultiFocusAnswer = chase.MultiFocusAnswer

// Evaluation plumbing for advanced use (custom matching, distance
// oracles, star-view caches).
type (
	// Matcher evaluates pattern queries with star views.
	Matcher = match.Matcher
	// MatchResult is one evaluation: answer, candidates, star tables.
	MatchResult = match.Result
	// DistIndex answers exact shortest-path distance queries.
	DistIndex = distindex.Index
	// StarCache is the star-view cache of §5.2.
	StarCache = match.Cache
)

// NewMatcher builds a matcher over g; cache may be nil.
func NewMatcher(g *Graph, dist DistIndex, cache *StarCache) *Matcher {
	return match.NewMatcher(g, dist, cache)
}

// NewStarCache returns a star-view cache with the given capacity and
// hit-decay factor (0.95 is a good default).
func NewStarCache(capacity int, decay float64) *StarCache {
	return match.NewCache(capacity, decay)
}

// NewDistIndex picks a distance oracle for g: Pruned Landmark Labeling
// on large graphs, bounded BFS otherwise.
func NewDistIndex(g *Graph) DistIndex { return distindex.Auto(g) }

// NewPLL builds a Pruned Landmark Labeling index explicitly.
func NewPLL(g *Graph) DistIndex { return distindex.NewPLL(g) }
