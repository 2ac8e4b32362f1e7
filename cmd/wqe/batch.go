package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wqe/internal/chase"
	"wqe/internal/graphload"
)

// batchJobSpec is one entry of the -batch jobs file: paths to the
// question's query and exemplar, plus optional per-job overrides.
type batchJobSpec struct {
	Query    string `json:"query"`    // query JSON path
	Exemplar string `json:"exemplar"` // exemplar JSON path

	// Beam selects the algorithm: 0 = exact AnsW, >0 = AnsHeu with that
	// beam width.
	Beam int `json:"beam,omitempty"`
	// MaxSteps, when positive, overrides the session step budget for
	// this job.
	MaxSteps int `json:"max_steps,omitempty"`
	// TimeLimitMS, when positive, is this job's anytime deadline in
	// milliseconds.
	TimeLimitMS int `json:"time_limit_ms,omitempty"`
}

// loadBatchSpecs reads a -batch jobs file: a JSON array of job specs.
// Relative query/exemplar paths resolve against the jobs file's
// directory, so a jobs file can travel with its inputs.
func loadBatchSpecs(path string) ([]batchJobSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []batchJobSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%s: no jobs", path)
	}
	dir := filepath.Dir(path)
	for i := range specs {
		if specs[i].Query == "" || specs[i].Exemplar == "" {
			return nil, fmt.Errorf("%s: job #%d needs both \"query\" and \"exemplar\"", path, i+1)
		}
		if !filepath.IsAbs(specs[i].Query) {
			specs[i].Query = filepath.Join(dir, specs[i].Query)
		}
		if !filepath.IsAbs(specs[i].Exemplar) {
			specs[i].Exemplar = filepath.Join(dir, specs[i].Exemplar)
		}
	}
	return specs, nil
}

// runBatch answers every job in the jobs file concurrently over one
// shared session (graph, star-view cache, distance oracle) and prints
// the results in submission order followed by the aggregate statistics.
// workers bounds how many jobs run at once.
func runBatch(cfg chase.Config, graphPath, batchPath string, workers int) error {
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
	specs, err := loadBatchSpecs(batchPath)
	if err != nil {
		return err
	}

	sess := chase.NewSessionWithIndex(g, cfg, res.Index)

	jobs := make([]chase.BatchJob, len(specs))
	for i, sp := range specs {
		q, err := loadQuery(sp.Query)
		if err != nil {
			return fmt.Errorf("job #%d: %w", i+1, err)
		}
		e, err := loadExemplar(sp.Exemplar)
		if err != nil {
			return fmt.Errorf("job #%d: %w", i+1, err)
		}
		jobs[i] = chase.BatchJob{
			Q: q, E: e,
			Beam:      sp.Beam,
			MaxSteps:  sp.MaxSteps,
			TimeLimit: time.Duration(sp.TimeLimitMS) * time.Millisecond,
		}
	}

	fmt.Println("graph:", g)
	fmt.Printf("batch: %d jobs over shared session\n\n", len(jobs))
	results, stats := sess.AskAll(jobs, chase.BatchOptions{Workers: workers})
	for i, r := range results {
		fmt.Printf("— job #%d (%s) —\n", i+1, filepath.Base(specs[i].Query))
		if r.Err != nil {
			fmt.Println("error:", r.Err)
			fmt.Println()
			continue
		}
		printAnswer(g, r.Answer)
		fmt.Printf("job search: %d chase steps, %d states\n\n", r.Steps, r.States)
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
