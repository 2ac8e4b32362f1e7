package main

import (
	"fmt"
	"math"

	"wqe/internal/chase"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
)

// checkSample bounds how many answers an untraced run re-evaluates
// (evenly spaced over the first pass); the traced pass checks all of
// its answers.
const checkSample = 120

// checker re-derives an answer independently of the path that produced
// it: a cache-less matcher over plain BFS instead of the session's star
// cache and PLL oracle, and a freshly built exemplar evaluator.
type checker struct {
	g      *graph.Graph
	m      *match.Matcher
	cfg    chase.Config
	params ops.Params
}

func newChecker(g *graph.Graph, cfg chase.Config) *checker {
	return &checker{
		g:      g,
		m:      match.NewMatcher(g, distindex.NewBFS(g), nil),
		cfg:    cfg,
		params: ops.Params{MaxBound: cfg.MaxBound},
	}
}

// check verifies one answer to question c: the rewrite is the operator
// sequence applied to the asked query, its cost is within the budget,
// re-evaluating it yields exactly the reported matches, and the
// reported closeness is the closeness of those matches.
func (ck *checker) check(c compiled, a chase.Answer) error {
	if a.Query == nil {
		return fmt.Errorf("answer has no rewrite")
	}
	if a.Cost > ck.cfg.Budget+1e-9 {
		return fmt.Errorf("cost %g exceeds budget %g", a.Cost, ck.cfg.Budget)
	}
	rewritten, err := a.Ops.Apply(c.q, ck.params)
	if err != nil {
		return fmt.Errorf("ops do not apply to the question: %w", err)
	}
	if rewritten.Key() != a.Query.Key() {
		return fmt.Errorf("rewrite %s is not the question ⊕ ops %s", a.Query.Key(), rewritten.Key())
	}
	got := ck.m.Match(a.Query).Answer
	if !sameNodes(got, a.Matches) {
		return fmt.Errorf("re-evaluation found %d matches, answer reports %d", len(got), len(a.Matches))
	}
	ev, err := exemplar.NewEval(ck.g, c.e, exemplar.Options{Theta: ck.cfg.Theta, Lambda: ck.cfg.Lambda})
	if err != nil {
		return err
	}
	focus := c.q.Nodes[c.q.Focus].Label
	cl := ev.Closeness(got, len(ck.g.NodesByLabel(focus)))
	if math.Abs(cl-a.Closeness) > 1e-9 {
		return fmt.Errorf("closeness %g, recomputed %g", a.Closeness, cl)
	}
	return nil
}

func sameNodes(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sampleIndices returns up to k indices evenly spaced over [0, n).
func sampleIndices(n, k int) []int {
	if n <= k {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}
