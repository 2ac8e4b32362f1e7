package main

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wqe/internal/chase"
	"wqe/internal/exemplar"
	"wqe/internal/graphload"
	"wqe/internal/jsonscan"
	"wqe/internal/query"
)

// loadJobs reads a -batch jobs file: a JSON array of job objects as
// chase.DecodeJob reads them, where a string "query" or "exemplar" is the
// path of the document instead. Relative paths resolve against the jobs
// file's directory, so a jobs file can travel with its inputs.
func loadJobs(path string) ([]chase.BatchJob, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var (
		r     jsonscan.Reader
		types jsonscan.Sticky
		jobs  []chase.BatchJob
	)
	r.Reset(data)
	err = r.List(func(int) error {
		jobs = append(jobs, chase.BatchJob{})
		j := &jobs[len(jobs)-1]
		bad, err := chase.DecodeJob(&r, j, &types, func(key []byte) (bool, error) {
			isQuery := jsonscan.FieldIs(key, "query")
			if c, err := r.Next(); err != nil || c != '"' || !isQuery && !jsonscan.FieldIs(key, "exemplar") {
				return false, err
			}
			doc, err := r.Str()
			p := string(doc)
			if !filepath.IsAbs(p) {
				p = filepath.Join(filepath.Dir(path), p)
			}
			switch {
			case err != nil:
			case isQuery:
				j.Q, err = load(p, query.ReadJSON)
			default:
				j.E, err = load(p, exemplar.ReadJSON)
			}
			return true, err
		})
		if err = cmp.Or(err, bad); err != nil {
			return fmt.Errorf("job #%d: %w", len(jobs), err)
		}
		return nil
	})
	if _, end := r.Next(); err == nil && end == nil {
		err = r.Errorf("data after the jobs array")
	}
	if err = cmp.Or(err, types.Err); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("%s: no jobs", path)
	}
	return jobs, nil
}

// runBatch answers every job in the jobs file concurrently over one
// shared session (graph, star-view cache) and prints the results in
// submission order followed by the aggregate statistics.
// cfg.Workers bounds how many jobs run at once. The jobs file is read
// before the graph, so a mistake in it shows before the graph's load time.
func runBatch(cfg chase.Config, graphPath, batchPath string) error {
	jobs, err := loadJobs(batchPath)
	if err != nil {
		return err
	}
	if graphPath == "" {
		return fmt.Errorf("-batch needs -graph")
	}
	res, err := graphload.Open(graphPath)
	if err != nil {
		return err
	}
	g := res.G
	if res.PLLRestored() {
		fmt.Fprintln(os.Stderr, "wqe: restored PLL distance index from snapshot")
	}
	sess := chase.NewSession(g, cfg)

	fmt.Println("graph:", g)
	fmt.Printf("batch: %d jobs over shared session\n\n", len(jobs))
	results, stats := sess.AskAll(jobs)
	for i, r := range results {
		fmt.Printf("— job #%d (%s) —\n", i+1, cmp.Or(jobs[i].AlgoName(), jobs[i].Algo))
		if r.Err != nil {
			fmt.Printf("error: %v\n\n", r.Err)
			continue
		}
		printAnswer(g, r.Answer)
		fmt.Printf("job search: %d chase steps, %d states, stop %s\n\n", r.Steps, r.States, r.Stop)
	}
	printBatchStats(stats)
	return nil
}

func printBatchStats(st chase.BatchStats) {
	fmt.Printf("batch: %d jobs (%d failed), %d workers, %d total chase steps, %v elapsed\n",
		st.Jobs, st.Failed, st.Workers, st.Steps, st.Elapsed.Round(time.Microsecond))
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Printf("star-view cache: %d hits, %d misses (%.1f%% hit rate)\n",
			st.CacheHits, st.CacheMisses,
			100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	}
}
