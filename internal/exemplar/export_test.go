package exemplar

import "wqe/internal/graph"

// NewScanEval is NewEval scoring every node of g, as it did before it
// read candidates off the value-code postings.
func NewScanEval(g *graph.Graph, e *Exemplar, opts Options) (*Eval, error) {
	ev, patterns, err := newEval(g, e, opts)
	if err != nil {
		return nil, err
	}
	ev.scan(patterns)
	ev.fillRep()
	return ev, nil
}

// PostingsBounded reports whether NewEval takes e's candidates at
// threshold theta off g's value-code postings rather than scoring every
// node of g.
func PostingsBounded(g *graph.Graph, e *Exemplar, theta float64) bool {
	_, patterns, err := newEval(g, e, Options{Theta: theta})
	if err != nil {
		panic(err)
	}
	_, ok := candidates(g, patterns, theta)
	return ok
}
