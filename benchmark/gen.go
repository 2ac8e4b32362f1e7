package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// workload describes one of the four benchmark workloads; why each
// exists is in BENCHMARK.json and README.md. Sizes are what fits the
// driver's time cap on a 2-CPU box while keeping enough distinct
// questions per run for steady percentiles (README "Sizing").
type workload struct {
	name string
	// serve workloads drive a wqe-serve subprocess over HTTP; the
	// others call the library in a child process of their own.
	serve bool
	// nodes is the watdiv-like generator's target size.
	nodes int
	// snapshot selects the load path: binary snapshot with embedded PLL
	// labels, or graph JSON with the PLL built at load.
	snapshot bool
	// pool is how many distinct questions are generated; mix assigns
	// question i the endpoint mix[i%len(mix)].
	pool int
	mix  []string
	// repeat makes clients resample the pool (answer-memo hits) instead
	// of consuming it once (misses).
	repeat bool
	// maxSteps caps each chase; traceOps is the fixed pool prefix the
	// traced pass replays; tail is the nominal tail percentile.
	maxSteps int
	traceOps int
	tail     float64
}

var workloads = []workload{
	{
		name:  "explore_heu",
		nodes: 2000, snapshot: true, pool: 1800, mix: []string{"/askfast"},
		maxSteps: 200, traceOps: 160, tail: 0.90,
	},
	{
		name:  "explore_answ",
		nodes: 1000, snapshot: false, pool: 1500, mix: []string{"/why"},
		maxSteps: 60, traceOps: 240, tail: 0.80,
	},
	{
		name:  "serve_repeat",
		nodes: 1000, serve: true, snapshot: true, pool: 400, repeat: true,
		mix: []string{
			"/askfast", "/ask", "/askfast", "/why", "/askfast", "/ask", "/askfast", "/ask", "/askfast", "/whymany",
			"/askfast", "/ask", "/askfast", "/why", "/askfast", "/ask", "/askfast", "/ask", "/askfast", "/whyempty",
		},
		maxSteps: 60, traceOps: 200, tail: 0.95,
	},
	{
		name:  "serve_distinct",
		nodes: 1000, serve: true, snapshot: true, pool: 5000,
		mix:      []string{"/askfast", "/why", "/askfast", "/whymany", "/askfast", "/askfast", "/why", "/askfast", "/whyempty", "/askfast"},
		maxSteps: 60, traceOps: 200, tail: 0.90,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// algoFor maps a serving endpoint to the library algorithm it runs.
func algoFor(endpoint string) string {
	switch endpoint {
	case "/askfast":
		return "heu"
	case "/whymany":
		return "whymany"
	case "/whyempty":
		return "whyempty"
	}
	return "answ" // /ask and /why
}

// question is one generated Why-question as the measured process
// receives it: the same JSON documents the CLI and the server accept,
// the endpoint/algorithm it is asked through, and the ground-truth
// answer Q*(G) its disturbed query was derived from.
type question struct {
	Query    json.RawMessage `json:"query"`
	Exemplar json.RawMessage `json:"exemplar"`
	Endpoint string          `json:"endpoint"`
	Truth    []int64         `json:"truth"`
}

// inputs is everything a measured process is handed: file paths and
// generated questions, never the seed's generator state.
type inputs struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Dir      string `json:"dir"`
	// GraphPath is the file the workload loads. In a traced run both
	// formats are written so the graphload probes can time each.
	GraphPath    string     `json:"graph_path"`
	SnapshotPath string     `json:"snapshot_path,omitempty"`
	JSONPath     string     `json:"json_path,omitempty"`
	Nodes        int        `json:"nodes"`
	Edges        int        `json:"edges"`
	Questions    []question `json:"questions"`
}

// whySpec is the question template (§7 "Generating Why-Questions"):
// tree queries with 2 edges and up to 2 predicates per node, disturbed
// by up to 3 operators, |T| ≤ 5. Why-Many questions come from
// relaxation-only disturbances, Why-Empty from refinement-only ones.
func whySpec(endpoint string) datagen.WhySpec {
	return datagen.WhySpec{
		Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
		DisturbOps: 3,
		MaxTuples:  5,
		RelaxOnly:  endpoint == "/whymany",
		RefineOnly: endpoint == "/whyempty",
	}
}

// genMetrics are the benchmark's own generation costs (informational)
// plus the ops probe, which needs the injected operator sequences only
// the generator holds.
type genMetrics struct {
	generateMS   float64
	genWhyMSPerQ float64
	opsApplyNS   float64
}

// generate builds the workload's inputs under dir from the seed alone:
// the graph files and the question pool. GenWhy's exemplars list real
// entities, so rep(E, V) is never empty and the engine accepts every
// generated question.
func generate(w workload, seed int64, seconds int, trace bool, dir string) (*inputs, genMetrics, error) {
	var gm genMetrics
	start := time.Now()
	g, err := datagen.Generate(datagen.DatasetProducts, w.nodes, seed)
	if err != nil {
		return nil, gm, err
	}
	pll := distindex.NewPLL(g)
	in := &inputs{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Dir: dir,
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
	}
	if w.snapshot || trace {
		in.SnapshotPath = filepath.Join(dir, "graph.snap")
		if err := writeFile(in.SnapshotPath, func(f *os.File) error { return g.WriteSnapshot(f, pll.Marshal()) }); err != nil {
			return nil, gm, err
		}
	}
	if !w.snapshot || trace {
		in.JSONPath = filepath.Join(dir, "graph.json")
		if err := writeFile(in.JSONPath, func(f *os.File) error { return g.WriteJSON(f) }); err != nil {
			return nil, gm, err
		}
	}
	in.GraphPath = in.JSONPath
	if w.snapshot {
		in.GraphPath = in.SnapshotPath
	}
	gm.generateMS = msSince(start)

	start = time.Now()
	m := match.NewMatcher(g, pll, nil)
	rng := rand.New(rand.NewSource(seed + 7))
	var applyNS []float64
	for tries := 0; len(in.Questions) < w.pool && tries < 20*w.pool; tries++ {
		endpoint := w.mix[len(in.Questions)%len(w.mix)]
		inst, ok := datagen.GenWhy(g, m, whySpec(endpoint), rng)
		if !ok {
			continue
		}
		q, err := encodeQuestion(inst, endpoint)
		if err != nil {
			return nil, gm, err
		}
		in.Questions = append(in.Questions, q)
		if trace && len(applyNS) < w.traceOps {
			applyNS = append(applyNS, timeApply(inst))
		}
	}
	if len(in.Questions) < w.pool {
		return nil, gm, fmt.Errorf("generated only %d of %d questions", len(in.Questions), w.pool)
	}
	gm.genWhyMSPerQ = msSince(start) / float64(len(in.Questions))
	gm.opsApplyNS = mean(applyNS)

	data, err := json.Marshal(in)
	if err != nil {
		return nil, gm, err
	}
	return in, gm, os.WriteFile(filepath.Join(dir, "inputs.json"), data, 0o644)
}

// timeApply is the ops-layer probe: re-applying a question's injected
// operator sequence to its ground-truth query and normalizing it.
func timeApply(inst *datagen.WhyInstance) float64 {
	start := time.Now()
	if _, err := inst.Injected.Apply(inst.Qstar, ops.DefaultParams()); err != nil {
		return 0
	}
	if _, err := inst.Injected.NormalForm(); err != nil {
		return 0
	}
	return float64(time.Since(start))
}

func encodeQuestion(inst *datagen.WhyInstance, endpoint string) (question, error) {
	var qb, eb bytes.Buffer
	if err := inst.Q.WriteJSON(&qb); err != nil {
		return question{}, err
	}
	if err := inst.E.WriteJSON(&eb); err != nil {
		return question{}, err
	}
	return question{
		Query:    bytes.TrimSpace(qb.Bytes()),
		Exemplar: bytes.TrimSpace(eb.Bytes()),
		Endpoint: endpoint,
		Truth:    nodeIDs(inst.AnswerStar),
	}, nil
}

// parse decodes the question's JSON documents the way the server does.
func (q question) parse() (*query.Query, *exemplar.Exemplar, error) {
	pq, err := query.ReadJSON(bytes.NewReader(q.Query))
	if err != nil {
		return nil, nil, err
	}
	pe, err := exemplar.ReadJSON(bytes.NewReader(q.Exemplar))
	if err != nil {
		return nil, nil, err
	}
	return pq, pe, nil
}

// nodeIDs converts an answer set to ascending int64 ids.
func nodeIDs(vs []graph.NodeID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func readInputs(dir string) (*inputs, error) {
	data, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err != nil {
		return nil, err
	}
	var in inputs
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	return &in, nil
}

// writeFile creates path, lets fill write it, and reports the first
// error including the one from Close.
func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := fill(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
