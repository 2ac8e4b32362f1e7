package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json. Bound is set on
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units and
// bounds are declared. The driver reads it, and so does this program,
// so what is printed cannot drift from what is declared.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// exactMetrics are the per-layer counts that must repeat exactly for a
// seed: they are made at Workers=1 over a fixed pool prefix and involve
// no clock. A change may rest a claim on them (choosing-metrics §8).
var exactMetrics = []string{
	"chase.steps", "chase.states", "distindex.chase_calls",
	"match.star_cells", "graph.ball_nodes_per_call",
}

func exactCounts(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, name := range exactMetrics {
		out[name] = m[name]
	}
	return out
}

// result is what one run of one workload produced. Metrics holds the
// end-to-end values of an untraced run or the per-layer values of a
// traced one; Detail carries the stamp, sizes and hashes that the
// driver's result line has no room for.
type result struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]float64     `json:"metrics"`
	Detail    map[string]interface{} `json:"detail"`
	Failures  []string               `json:"failures,omitempty"`
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Detail: map[string]interface{}{}}
}

// fail counts one failed operation or answer check, keeping the first
// few messages.
func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// setEndToEnd fills the six end-to-end metrics from raw samples.
func (r *result) setEndToEnd(w workload, setupS, latencyMS []float64, elapsed time.Duration, jaccards []float64, rssMB float64) {
	sorted := sortedCopy(latencyMS)
	tail := tailPercentile(len(sorted), w.tail)
	r.Metrics["setup_s"] = median(setupS)
	r.Metrics["ops_per_s"] = ratio(float64(len(sorted)), elapsed.Seconds())
	r.Metrics["latency_p50_ms"] = percentile(sorted, 0.50)
	r.Metrics["latency_tail_ms"] = percentile(sorted, tail)
	r.Metrics["answer_jaccard_mean"] = mean(jaccards)
	r.Metrics["rss_peak_mb"] = rssMB
	all := map[string]float64{}
	for _, p := range tailCandidates {
		all[fmt.Sprintf("p%.0f", 100*p)] = percentile(sorted, p)
	}
	r.Detail["latency_ms"] = all
	r.Detail["samples"] = len(sorted)
	r.Detail["tail_percentile"] = tail
	r.Detail["tail_samples_beyond"] = beyond(len(sorted), tail)
	r.Detail["window_s"] = elapsed.Seconds()
	r.Detail["setup_samples_s"] = setupS
}

func (r *result) save(dir string) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
}

func loadResult(dir string) (*result, error) {
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}
	r := newResult()
	return r, json.Unmarshal(data, r)
}

// metricValue is how the driver wants one metric reported.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly the keys the
// driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the run as a table, a detail line, and the driver's
// result line last. Every metric BENCHMARK.json declares for this kind
// of run must have been measured; a missing one is an error.
func (r *result) print(out io.Writer, specs []metricSpec) error {
	line := resultLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", s.Name)
		}
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(out, "%-34s %16s %s\n", s.Name, formatValue(v), s.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	detail, err := json.Marshal(map[string]interface{}{"detail": r.Detail})
	if err != nil {
		return err
	}
	final, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", detail, final)
	return err
}

// formatValue renders whole numbers without a fraction and everything
// else with six significant digits, for the table only.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// lastLines returns the last n non-empty lines of s.
func lastLines(s string, n int) []string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return lines
}
