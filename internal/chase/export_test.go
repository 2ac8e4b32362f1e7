package chase

import (
	"wqe/internal/anscache"
	"wqe/internal/graph"
	"wqe/internal/match"
)

// NewSessionWithShards is NewSession with its star-view cache striped
// over the given number of locks instead of the automatic count, so the
// determinism tests can show no stripe layout reaches an answer.
func NewSessionWithShards(g *graph.Graph, cfg Config, shards int) *Session {
	s := NewSession(g, cfg)
	s.cache = anscache.New[*match.StarTable](cfg.CacheCap, shards)
	return s
}

// PanicMidAddL makes addL, at the n-th pattern node from now on where it
// counts any value, panic before it resets the counts.
// undo takes the panic out.
func PanicMidAddL(n int) (undo func()) {
	addLCounted = func() {
		if n--; n == 0 {
			panic("chase test: panic mid-addL")
		}
	}
	return func() { addLCounted = nil }
}
