// Command wqe-loadgen is the closed-loop load generator for wqe-serve:
// N concurrent clients each issue one Why-question, wait for the
// answer, and immediately issue the next, so offered load adapts to
// server capacity (the FalkorDB benchmark discipline). The run reports
// achieved throughput, per-endpoint p50/p95/p99/max latency from
// log-linear histograms, and an error breakdown by status code, as
// JSON on stdout or -out.
//
//	wqe-loadgen -url http://127.0.0.1:8080 -graph fig1 -fig1 -clients 8 -duration 10s
//	wqe-loadgen -url ... -graph g -pool pool.json -mix '{"/ask":3,"/askfast":5,"/why":1}' -rps 200
//	wqe-loadgen -url ... -graph g -fig1 -mix @mix.json -seed 7 -out report.json
//
// The query mix is a JSON object of endpoint-to-ratio weights (inline
// or @file); endpoints are sampled per request through a seeded CDF, so
// a run is reproducible per -seed. The payload pool (-pool) is a JSON
// array of {"query":..., "exemplar":...} objects sampled uniformly;
// -fig1 uses the built-in Fig 1 fixture instead. A -warmup window is
// exercised but excluded from the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wqe/internal/loadgen"
)

// defaultMix mirrors an interactive exploration session: mostly fast
// asks, some exact asks, occasional explanation queries.
const defaultMix = `{"/ask": 3, "/askfast": 5, "/why": 1, "/whyempty": 0.5, "/whymany": 0.5}`

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("wqe-loadgen", flag.ContinueOnError)
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "base URL of the wqe-serve instance")
		graphArg = fs.String("graph", "", "resident graph to query (empty works for single-tenant servers)")
		clients  = fs.Int("clients", 8, "concurrent closed-loop clients")
		duration = fs.Duration("duration", 10*time.Second, "run length, warmup included")
		warmup   = fs.Duration("warmup", time.Second, "initial window exercised but excluded from the report")
		rps      = fs.Float64("rps", 0, "fleet-wide target requests/sec (0 = unthrottled closed loop)")
		maxReq   = fs.Int64("max-requests", 0, "stop after this many requests even if -duration remains (0 = off)")
		seed     = fs.Int64("seed", 1, "sampling seed; client i draws from seed+i")
		mixSpec  = fs.String("mix", defaultMix, "endpoint-to-ratio JSON object, inline or @file")
		poolPath = fs.String("pool", "", "payload pool: JSON array of {query, exemplar} objects")
		fig1     = fs.Bool("fig1", false, "use the built-in Fig 1 fixture payload instead of -pool")
		out      = fs.String("out", "", "write the JSON report here instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wqe-loadgen:", err)
		return 2
	}
	pool, err := loadPool(*poolPath, *fig1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wqe-loadgen:", err)
		return 2
	}

	rep, err := loadgen.Run(loadgen.Options{
		BaseURL:     strings.TrimRight(*url, "/"),
		Graph:       *graphArg,
		Mix:         mix,
		Pool:        pool,
		Clients:     *clients,
		Duration:    *duration,
		Warmup:      *warmup,
		TargetRPS:   *rps,
		MaxRequests: *maxReq,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wqe-loadgen:", err)
		return 1
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wqe-loadgen: encode report:", err)
		return 1
	}
	b = append(b, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "wqe-loadgen:", err)
			return 1
		}
		fmt.Printf("wqe-loadgen: %d requests, %.1f req/s, error rate %.3f -> %s\n",
			rep.Requests, rep.AchievedRPS, rep.ErrorRate, *out)
		return 0
	}
	fmt.Print(string(b))
	return 0
}

// parseMix decodes the -mix spec: inline JSON, or @path to a file.
func parseMix(spec string) (map[string]float64, error) {
	raw := []byte(spec)
	if strings.HasPrefix(spec, "@") {
		b, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("read mix: %w", err)
		}
		raw = b
	}
	var mix map[string]float64
	if err := json.Unmarshal(raw, &mix); err != nil {
		return nil, fmt.Errorf("parse mix %q: %w", spec, err)
	}
	return mix, nil
}

// loadPool resolves the payload pool from -pool or -fig1.
func loadPool(path string, fig1 bool) ([]loadgen.Payload, error) {
	switch {
	case fig1 && path != "":
		return nil, fmt.Errorf("-fig1 and -pool are mutually exclusive")
	case fig1:
		return loadgen.Fig1Pool(), nil
	case path == "":
		return nil, fmt.Errorf("need -pool file.json or -fig1")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read pool: %w", err)
	}
	var pool []loadgen.Payload
	if err := json.Unmarshal(b, &pool); err != nil {
		return nil, fmt.Errorf("parse pool %s: %w", path, err)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("pool %s is empty", path)
	}
	return pool, nil
}
