// Package bench regenerates the paper's evaluation (§7): one driver per
// figure, each running the algorithm suite over generated Why-question
// workloads and reporting the same rows/series the paper plots.
// Absolute numbers differ from the paper's testbed; the comparisons
// (which algorithm wins, by roughly what factor, and how curves trend)
// are the reproduction target (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/query"
)

// Options scales the experiment harness.
type Options struct {
	// Scale is the approximate node count per generated dataset.
	Scale int
	// Queries is the number of Why-questions per measurement point (the
	// paper uses 50).
	Queries int
	// Seed drives all generation.
	Seed int64
	// MaxSteps caps chase steps per run so unpruned variants terminate.
	MaxSteps int
	// TimeLimit caps each algorithm run (anytime cutoff); 0 = none.
	TimeLimit time.Duration
}

// DefaultOptions is sized for the CLI experiment runner.
func DefaultOptions() Options {
	return Options{Scale: 12000, Queries: 20, Seed: 7, MaxSteps: 4000}
}

// QuickOptions is sized for `go test -bench`: small enough that the
// full figure suite regenerates in a few minutes on one core.
func QuickOptions() Options {
	return Options{Scale: 1500, Queries: 3, Seed: 7, MaxSteps: 600}
}

// Harness caches generated graphs and workloads across experiments.
type Harness struct {
	Opts      Options
	graphs    map[string]*graph.Graph
	instances map[string][]*datagen.WhyInstance
}

// New returns a harness.
func New(opts Options) *Harness {
	if opts.Scale <= 0 {
		opts = DefaultOptions()
	}
	return &Harness{
		Opts:      opts,
		graphs:    map[string]*graph.Graph{},
		instances: map[string][]*datagen.WhyInstance{},
	}
}

// GraphFor returns (building and caching) the dataset graph at the
// harness scale.
//
// invariant: callers pass one of the datagen.Dataset* constants, for
// which Generate is total; the panic below is unreachable and exists to
// keep benchmark call sites free of error plumbing.
func (h *Harness) GraphFor(dataset string, scale int) *graph.Graph {
	key := fmt.Sprintf("%s/%d", dataset, scale)
	if g, ok := h.graphs[key]; ok {
		return g
	}
	g, err := datagen.Generate(dataset, scale, h.Opts.Seed)
	if err != nil {
		panic(err)
	}
	h.graphs[key] = g
	return g
}

// InstanceSpec pins down one workload point.
type InstanceSpec struct {
	Dataset    string
	Scale      int // 0 = harness scale
	Edges      int // |E_Q|; 0 = 2
	Shape      query.Topology
	Tuples     int // |T|; 0 = 5
	DisturbOps int // 0 = 3
	RefineOnly bool
	RelaxOnly  bool
}

func (s InstanceSpec) withDefaults(h *Harness) InstanceSpec {
	if s.Scale == 0 {
		s.Scale = h.Opts.Scale
	}
	if s.Edges == 0 {
		s.Edges = 2
	}
	if s.Shape == query.TopoSingleton {
		s.Shape = query.TopoTree
	}
	if s.Tuples == 0 {
		s.Tuples = 5
	}
	if s.DisturbOps == 0 {
		s.DisturbOps = 3
	}
	return s
}

func (s InstanceSpec) key() string {
	return fmt.Sprintf("%s/%d/e%d/s%d/t%d/d%d/r%v/x%v",
		s.Dataset, s.Scale, s.Edges, s.Shape, s.Tuples, s.DisturbOps, s.RefineOnly, s.RelaxOnly)
}

// Instances returns (generating and caching) the Why-question workload
// for a spec.
func (h *Harness) Instances(spec InstanceSpec) []*datagen.WhyInstance {
	spec = spec.withDefaults(h)
	key := spec.key()
	if inst, ok := h.instances[key]; ok {
		return inst
	}
	g := h.GraphFor(spec.Dataset, spec.Scale)
	m := match.NewMatcher(g, distindex.NewBFS(g), nil)
	rng := rand.New(rand.NewSource(h.Opts.Seed*131 + int64(len(key))))
	var out []*datagen.WhyInstance
	want := h.Opts.Queries
	for tries := 0; len(out) < want && tries < want*40; tries++ {
		inst, ok := datagen.GenWhy(g, m, datagen.WhySpec{
			Query: datagen.QuerySpec{
				Shape:         spec.Shape,
				Edges:         spec.Edges,
				MaxPredicates: 3,
				PathEdgeProb:  0.25,
			},
			DisturbOps: spec.DisturbOps,
			MaxTuples:  spec.Tuples,
			RefineOnly: spec.RefineOnly,
			RelaxOnly:  spec.RelaxOnly,
		}, rng)
		if ok {
			out = append(out, inst)
		}
	}
	h.instances[key] = out
	return out
}

// Algo names an algorithm configuration the experiments compare.
type Algo struct {
	Name string
	Beam int // AnsHeu/AnsHeuB beam width
}

// The algorithm suite of §7.
var (
	AlgoAnsW    = Algo{Name: "AnsW"}
	AlgoAnsWnc  = Algo{Name: "AnsWnc"}
	AlgoAnsWb   = Algo{Name: "AnsWb"}
	AlgoAnsHeu  = Algo{Name: "AnsHeu", Beam: 3}
	AlgoAnsHeuB = Algo{Name: "AnsHeuB", Beam: 3}
	AlgoFMAnsW  = Algo{Name: "FMAnsW"}
	AlgoApxWhyM = Algo{Name: "ApxWhyM"}
	AlgoAnsWE   = Algo{Name: "AnsWE"}
)

func (a Algo) String() string {
	if a.Beam > 0 && a.Beam != 3 {
		return fmt.Sprintf("%s(k=%d)", a.Name, a.Beam)
	}
	return a.Name
}

// config builds the chase configuration an algorithm variant uses.
func (h *Harness) config(a Algo, budget float64) chase.Config {
	cfg := chase.DefaultConfig()
	cfg.Budget = budget
	cfg.MaxSteps = h.Opts.MaxSteps
	cfg.TimeLimit = h.Opts.TimeLimit
	switch a.Name {
	case "AnsWnc":
		cfg.CacheCap = 0
	case "AnsWb", "FMAnsW":
		cfg.CacheCap = 0
		cfg.Prune = false
	}
	return cfg
}

// RunResult is one algorithm run over one instance.
type RunResult struct {
	Answer  chase.Answer
	Stats   chase.Stats
	Elapsed time.Duration
}

// Run executes an algorithm on one instance with the given budget.
func (h *Harness) Run(a Algo, g *graph.Graph, inst *datagen.WhyInstance, budget float64) (RunResult, error) {
	w, err := chase.NewWhy(g, inst.Q, inst.E, h.config(a, budget))
	if err != nil {
		return RunResult{}, err
	}
	start := time.Now()
	var ans chase.Answer
	switch a.Name {
	case "AnsW", "AnsWnc", "AnsWb":
		ans = w.AnsW()
	case "AnsHeu":
		ans = w.AnsHeu(a.Beam)
	case "AnsHeuB":
		ans = w.AnsHeuB(a.Beam)
	case "FMAnsW":
		ans = w.FMAnsW()
	case "ApxWhyM":
		ans = w.ApxWhyM()
	case "AnsWE":
		ans = w.AnsWE()
	default:
		return RunResult{}, fmt.Errorf("bench: unknown algorithm %q", a.Name)
	}
	return RunResult{Answer: ans, Stats: w.Stats, Elapsed: time.Since(start)}, nil
}

// Jaccard computes the relative-closeness surrogate of Exp-2: the
// Jaccard coefficient of an answer against the ground truth.
func Jaccard(a, b []graph.NodeID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := make(map[graph.NodeID]bool, len(a))
	for _, v := range a {
		inA[v] = true
	}
	inter := 0
	for _, v := range b {
		if inA[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Table is one printable experiment result.
type Table struct {
	ID     string // e.g. "Fig 10(a)"
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	var out strings.Builder
	fmt.Fprintf(&out, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintln(&out, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(&out)
	//lint:ignore errdrop table rendering is best-effort console output
	io.WriteString(w, out.String())
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }
func f3(v float64) string         { return fmt.Sprintf("%.3f", v) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

func meanF(fs []float64) float64 {
	if len(fs) == 0 {
		return 0
	}
	var total float64
	for _, f := range fs {
		total += f
	}
	return total / float64(len(fs))
}
