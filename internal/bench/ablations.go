package bench

import (
	"fmt"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
)

// The ablation experiments back the design choices DESIGN.md §5 calls
// out; they have no figure counterpart in the paper.
func init() {
	Experiments = append(Experiments,
		struct {
			ID  string
			Run func(*Harness) *Table
		}{"a1", (*Harness).AblationCacheCapacity},
		struct {
			ID  string
			Run func(*Harness) *Table
		}{"a3", (*Harness).AblationAnalysisCap},
	)
}

// AblationCacheCapacity sweeps the star-view cache size: runtime and
// hit rate of AnsW per capacity (0 disables caching).
func (h *Harness) AblationCacheCapacity() *Table {
	t := &Table{
		ID:     "Ablation A1",
		Title:  "Star-view cache capacity (AnsW on " + datagen.DatasetKnowledge + ")",
		Header: []string{"capacity", "mean time", "hit rate"},
	}
	spec := InstanceSpec{Dataset: datagen.DatasetKnowledge}
	g := h.GraphFor(datagen.DatasetKnowledge, h.Opts.Scale)
	instances := h.Instances(spec)
	for _, cap := range []int{0, 16, 128, 1024, 8192} {
		var times []time.Duration
		var hits, total int64
		for _, inst := range instances {
			cfg := h.config(AlgoAnsW, defaultBudget)
			cfg.CacheCap = cap
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				continue
			}
			start := time.Now()
			w.AnsW()
			times = append(times, time.Since(start))
			hits += w.Stats.CacheHits
			total += w.Stats.CacheHits + w.Stats.CacheMiss
		}
		rate := "-"
		if total > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(cap), secs(mean(times)), rate})
	}
	return t
}

// AblationAnalysisCap sweeps the per-state neighborhood-analysis cap:
// runtime vs answer quality.
func (h *Harness) AblationAnalysisCap() *Table {
	t := &Table{
		ID:     "Ablation A3",
		Title:  "Picky-generation analysis cap (AnsW on " + datagen.DatasetOffshore + ")",
		Header: []string{"cap", "mean time", "δ"},
	}
	spec := InstanceSpec{Dataset: datagen.DatasetOffshore}
	g := h.GraphFor(datagen.DatasetOffshore, h.Opts.Scale)
	instances := h.Instances(spec)
	for _, cap := range []int{15, 60, 240, 960} {
		var times []time.Duration
		var deltas []float64
		for _, inst := range instances {
			cfg := h.config(AlgoAnsW, defaultBudget)
			cfg.MaxAnalysis = cap
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				continue
			}
			start := time.Now()
			a := w.AnsW()
			times = append(times, time.Since(start))
			deltas = append(deltas, Jaccard(a.Matches, inst.AnswerStar))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(cap), secs(mean(times)), f3(meanF(deltas))})
	}
	return t
}
