package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
)

// passResult is one pass of one workload as the suite collected it
// from a subprocess's last two lines of standard output.
type passResult struct {
	Workload string                 `json:"workload"`
	Trace    bool                   `json:"trace"`
	Result   resultLine             `json:"result"`
	Detail   map[string]interface{} `json:"detail"`
}

// suiteMain runs every workload, untraced then traced, each as its own
// process (this program with -workload), and prints one table and one
// JSON document with the same data, last. With repeat 2 it does so
// twice and fails unless the two sets agree.
func suiteMain(root string, spec *benchSpec, seed int64, seconds, repeat int, cl *cleaner) error {
	if repeat != 1 && repeat != 2 {
		return fmt.Errorf("-repeat must be 1 or 2")
	}
	var sets [][]passResult
	for r := 0; r < repeat; r++ {
		var set []passResult
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				fmt.Fprintf(os.Stderr, "benchmark: set %d: %s trace=%v\n", r+1, w.name, trace)
				p, err := runPass(w.name, seed, seconds, trace, cl)
				if err != nil {
					return err
				}
				set = append(set, p)
			}
		}
		printSet(spec, set)
		sets = append(sets, set)
	}
	verdict := checkSets(spec, sets)
	doc, err := json.Marshal(map[string]interface{}{"stamp": stamp(root), "seed": seed, "seconds": seconds, "sets": sets})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", doc)
	return verdict
}

// checkSets is the suite's verdict: every pass correct, and with two
// sets, the two in agreement.
func checkSets(spec *benchSpec, sets [][]passResult) error {
	for _, set := range sets {
		for _, p := range set {
			if !p.Result.Correct {
				return fmt.Errorf("%s (trace=%v): %d of %d operations or answer checks failed",
					p.Workload, p.Trace, p.Result.Failed, p.Result.Attempted)
			}
		}
	}
	if len(sets) == 2 {
		return compareSets(spec, sets[0], sets[1])
	}
	return nil
}

// runPass runs one pass in a subprocess and parses its detail and
// result lines. A pass whose checks failed still prints both lines
// before exiting non-zero, so parse first and report the exit after.
func runPass(name string, seed int64, seconds int, trace bool, cl *cleaner) (passResult, error) {
	p := passResult{Workload: name, Trace: trace}
	self, err := os.Executable()
	if err != nil {
		return p, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return p, err
	}
	cl.addProc(cmd.Process)
	runErr := cmd.Wait()
	lines := lastLines(out.String(), 2)
	if len(lines) < 2 {
		return p, fmt.Errorf("%s (trace=%v) printed no result: %v", name, trace, runErr)
	}
	var d struct {
		Detail map[string]interface{} `json:"detail"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		return p, fmt.Errorf("%s (trace=%v): detail line: %v (%v)", name, trace, err, runErr)
	}
	if err := json.Unmarshal([]byte(lines[1]), &p.Result); err != nil {
		return p, fmt.Errorf("%s (trace=%v): result line: %v (%v)", name, trace, err, runErr)
	}
	p.Detail = d.Detail
	return p, nil
}

// printSet prints one set as two tables — end-to-end, then per-layer —
// with one column per workload.
func printSet(spec *benchSpec, set []passResult) {
	for _, trace := range []bool{false, true} {
		specs, title := spec.EndToEnd, "end-to-end (tracing off)"
		if trace {
			specs, title = spec.PerLayer, "per-layer (traced pass)"
		}
		fmt.Printf("\n%-34s %-6s", title, "unit")
		for _, w := range workloads {
			fmt.Printf(" %15s", w.name)
		}
		fmt.Println()
		for _, s := range specs {
			fmt.Printf("%-34s %-6s", s.Name, s.Unit)
			for _, w := range workloads {
				for _, p := range set {
					if p.Workload == w.name && p.Trace == trace {
						fmt.Printf(" %15s", formatValue(p.Result.Metrics[s.Name].Value))
					}
				}
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

// compareSets is the -repeat 2 verdict: every end-to-end metric of the
// second set within its bound of the first (in the worse direction),
// and the traced passes' answer hashes and exact counts identical.
func compareSets(spec *benchSpec, a, b []passResult) error {
	var bad []string
	for i := range a {
		pa, pb := a[i], b[i]
		tag := fmt.Sprintf("%s (trace=%v)", pa.Workload, pa.Trace)
		if pa.Trace {
			if pa.Detail["answers_sha256"] != pb.Detail["answers_sha256"] {
				bad = append(bad, tag+": answers_sha256 differs")
			}
			if !reflect.DeepEqual(pa.Detail["exact"], pb.Detail["exact"]) {
				bad = append(bad, fmt.Sprintf("%s: exact counts differ: %v vs %v", tag, pa.Detail["exact"], pb.Detail["exact"]))
			}
			continue
		}
		for _, s := range spec.EndToEnd {
			va, vb := pa.Result.Metrics[s.Name].Value, pb.Result.Metrics[s.Name].Value
			worse := (vb - va) / va
			if s.Better == "higher" {
				worse = (va - vb) / va
			}
			if worse > s.Bound {
				bad = append(bad, fmt.Sprintf("%s: %s went from %g to %g, worse by %.1f%% (bound %.0f%%)",
					tag, s.Name, va, vb, 100*worse, 100*s.Bound))
			}
		}
	}
	for _, msg := range bad {
		fmt.Println("DISAGREE:", msg)
	}
	if len(bad) > 0 {
		return fmt.Errorf("the two sets disagree on %d points", len(bad))
	}
	fmt.Println("the two sets agree: every end-to-end metric within its bound, answers and exact counts identical")
	return nil
}
