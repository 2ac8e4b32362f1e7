package chase_test

import (
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
)

// TestBatchIdenticalAcrossShardCounts is the sharded-cache determinism
// gate: AskAll output (rendered rewrite, matches, step and state
// counts) must be byte-identical for every shard-count × worker-count
// combination, against an unsharded single-worker reference. Sharding
// may only change which star tables get rebuilt — a cached table is a
// pure function of its key — so no cache layout is allowed to leak into
// answers. Beam and exact jobs are mixed so both algorithms cross the
// striped cache concurrently.
func TestBatchIdenticalAcrossShardCounts(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 1200, 6, 5)
	jobs := make([]chase.BatchJob, len(instances))
	for i, inst := range instances {
		jobs[i] = chase.BatchJob{Q: inst.Q, E: inst.E, MaxSteps: 400}
		if i%2 == 1 {
			jobs[i].Beam = 3
		}
	}

	type rendered struct {
		answer        string
		steps, states int
	}
	run := func(shards, workers int) []rendered {
		cfg := chase.DefaultConfig()
		cfg.MaxSteps = 400
		cfg.Workers = workers
		sess := chase.NewSessionWithShards(g, cfg, shards)
		results, stats := sess.AskAll(jobs)
		out := make([]rendered, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("shards=%d workers=%d job %d: %v", shards, workers, i, r.Err)
			}
			out[i] = rendered{renderAnswer(r.Answer), r.Steps, r.States}
		}
		if stats.Failed != 0 {
			t.Fatalf("shards=%d workers=%d: %d jobs failed", shards, workers, stats.Failed)
		}
		return out
	}

	ref := run(1, 1)
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4, 8} {
			if shards == 1 && workers == 1 {
				continue
			}
			got := run(shards, workers)
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("shards=%d workers=%d job %d diverged:\nref %+v\ngot %+v",
						shards, workers, i, ref[i], got[i])
				}
			}
		}
	}
}
