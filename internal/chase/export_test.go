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
