// Command benchmark is the repo's one benchmark: the whole request
// path — graph file to ready session or server, then Why-questions —
// measured end to end on four workloads, and layer by layer in a
// separate traced pass. BENCHMARK.json at the repo root declares the
// metrics, units, bounds and workloads; README.md in this directory
// explains them.
//
//	go run ./benchmark -seed 7            # all workloads, both passes, one table
//	go run ./benchmark -seed 7 -repeat 2  # twice, and fail unless the two sets agree
//	go run ./benchmark --workload explore_heu --seed 7 --seconds 24 --trace 0
//
// The last form is what the driver runs: one workload, one pass, and
// as the last line of standard output one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1).
//
// Everything is measured from outside the engine, by timing calls into
// its public functions and HTTP requests to a wqe-serve subprocess
// built from this checkout. The program writes only under .bench_build/
// in the checkout and removes its work directory and subprocesses on
// every exit path.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"wqe/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload and end with the driver's result line (default: all four, both passes)")
		seed    = fs.Int64("seed", 7, "seed every generated input derives from")
		seconds = fs.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		repeat  = fs.Int("repeat", 1, "with no -workload: run the whole set this many times (1 or 2) and require the sets to agree")
		child   = fs.String("child", "", "internal: run as a library workload's measured process over this work directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		if err := childMain(*child); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: child:", err)
			return 1
		}
		return 0
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}

	// Subprocesses and the work directory are released on every exit
	// path: normally below, on SIGINT/SIGTERM by the watcher.
	cl := &cleaner{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	var watcher par.Group
	watcher.Go(func() {
		select {
		case <-sig:
			cl.run()
			os.Exit(130)
		case <-done:
		}
	})
	code := 0
	if *name == "" {
		err = suiteMain(root, spec, *seed, *seconds, *repeat, cl)
	} else {
		err = workloadMain(root, spec, *name, *seed, *seconds, *trace == 1, cl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	close(done)
	watcher.Wait()
	cl.run()
	return code
}

// serveOnly are the per-layer metrics only a serve workload can
// measure; a library workload reports them as 0 so that every traced
// run prints every declared metric.
var serveOnly = []string{
	"serve.boot_ms", "serve.warmup_ms", "serve.hit_latency_ms_p50", "serve.overhead_ms_p50",
	"serve.response_bytes_mean", "serve.admitted", "serve.rejected_full", "serve.job_errors",
	"anscache.hit_ratio", "anscache.coalesced", "par.client_scaling",
}

// workloadMain runs one pass of one workload: generate the inputs from
// the seed, measure, check, print.
func workloadMain(root string, spec *benchSpec, name string, seed int64, seconds int, trace bool, cl *cleaner) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir := filepath.Join(root, buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cl.addDir(dir)
	in, gm, err := generate(w, seed, seconds, trace, dir)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}

	var res *result
	switch {
	case w.serve && trace:
		res, err = serveTraced(root, in, w, cl)
	case w.serve:
		res, err = serveTimed(root, in, w, cl)
	default:
		res, err = runChild(dir, cl)
	}
	if err != nil {
		return err
	}

	specs := spec.EndToEnd
	if trace {
		specs = spec.PerLayer
		res.Metrics["datagen.generate_ms"] = gm.generateMS
		res.Metrics["datagen.genwhy_ms_per_question"] = gm.genWhyMSPerQ
		res.Metrics["ops.apply_ns"] = gm.opsApplyNS
		if !w.serve {
			for _, name := range serveOnly {
				res.Metrics[name] = 0
			}
		}
		res.Detail["exact"] = exactCounts(res.Metrics)
		res.Detail["trace_file"] = traceFile(in)
	}
	res.Detail["workload"] = w.name
	res.Detail["seed"] = seed
	res.Detail["seconds"] = seconds
	res.Detail["trace"] = trace
	res.Detail["nodes"] = in.Nodes
	res.Detail["edges"] = in.Edges
	res.Detail["questions_generated"] = len(in.Questions)
	res.Detail["stamp"] = stamp(root)
	if err := res.print(os.Stdout, specs); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations or answer checks failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runChild runs a library workload's measured process — this same
// program over the work directory — and collects its result. The child
// holds the graph; its peak RSS is the workload's.
func runChild(dir string, cl *cleaner) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := command(self, "-child", dir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cl.addProc(cmd.Process)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("measured process: %w", err)
	}
	return loadResult(dir)
}
