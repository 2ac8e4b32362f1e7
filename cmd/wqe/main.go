// Command wqe answers a Why-question over an attributed graph: given a
// graph (JSON), a pattern query (JSON), and an exemplar (JSON), it
// computes a budgeted query rewrite whose answers are closest to the
// exemplar and prints the rewrite, its answers, and the differential
// table explaining every change.
//
//	wqe -graph g.json -query q.json -exemplar e.json -algo answ -budget 3
//	wqe -graph g.json -batch jobs.json -workers 4   # batch of questions
//	wqe -demo          # run the paper's Fig 1 cellphone example
//	wqe -graph g.json -save-snapshot g.snap         # convert to binary snapshot
//
// -graph accepts either on-disk format — graph JSON or the binary
// snapshot written by -save-snapshot / wqe-datagen -snapshot — sniffed
// from the file's leading bytes. A snapshot with embedded PLL labels
// also restores the distance index, skipping its construction.
//
// Algorithms: answ (exact anytime), topk, heu (beam search), whymany,
// whyempty, fmansw (baseline).
//
// Batch mode answers many Why-questions concurrently over one shared
// graph, star-view cache, and distance index. The jobs file is a JSON
// array of the job objects wqe-serve's /askall takes (chase.DecodeJob),
// where "query" and "exemplar" may also be file paths; results print in
// submission order and are identical to running the jobs one at a time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/graphload"
	"wqe/internal/query"
)

func main() {
	var (
		graphPath    = flag.String("graph", "", "graph JSON file")
		queryPath    = flag.String("query", "", "pattern query JSON file")
		exemplarPath = flag.String("exemplar", "", "exemplar JSON file")
		algo         = flag.String("algo", "answ", "answ | topk | heu | whymany | whyempty | fmansw")
		k            = flag.Int("k", 3, "rewrites to return for -algo topk")
		beam         = flag.Int("beam", 3, "beam width for -algo heu")
		budget       = flag.Float64("budget", 3, "operator cost budget B")
		theta        = flag.Float64("theta", 1, "vsim closeness threshold θ")
		lambda       = flag.Float64("lambda", 1, "irrelevant-match penalty λ")
		maxBound     = flag.Int("maxbound", 3, "edge bound cap b_m")
		demo         = flag.Bool("demo", false, "run the built-in Fig 1 example")
		batchPath    = flag.String("batch", "", "jobs JSON file: answer a batch of Why-questions over one shared session")
		workers      = flag.Int("workers", 0, "batch worker count (0 = one per logical CPU)")
		saveSnapshot = flag.String("save-snapshot", "",
			"write the loaded -graph as a binary snapshot to this path (alone with -graph: convert and exit)")
	)
	flag.Parse()

	cfg := chase.DefaultConfig()
	cfg.Budget = *budget
	cfg.Theta = *theta
	cfg.Lambda = *lambda
	cfg.MaxBound = *maxBound
	cfg.Workers = *workers

	var err error
	if *batchPath != "" {
		if *saveSnapshot != "" {
			err = fmt.Errorf("-save-snapshot does not combine with -batch")
		} else {
			err = runBatch(cfg, *graphPath, *batchPath)
		}
	} else {
		err = run(cfg, question{
			graph: *graphPath, query: *queryPath, exemplar: *exemplarPath,
			algo: *algo, k: *k, beam: *beam, demo: *demo, saveSnapshot: *saveSnapshot,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wqe:", err)
		os.Exit(1)
	}
}

// question is one single-question run's flags other than the search
// configuration: where its inputs come from and which algorithm answers.
type question struct {
	graph, query, exemplar string
	algo                   string
	k, beam                int
	demo                   bool
	saveSnapshot           string
}

// run answers one question: as a job through Session.Run, like -batch,
// but for topk, which returns k rewrites.
func run(cfg chase.Config, a question) error {
	if a.algo != "topk" && (chase.BatchJob{Algo: a.algo}).AlgoName() == "" {
		return fmt.Errorf("unknown -algo %q", a.algo)
	}
	var (
		g   *graph.Graph
		q   *query.Query
		e   *exemplar.Exemplar
		idx distindex.Index
	)
	if a.demo {
		f := datagen.NewFig1()
		g, q, e = f.G, f.Q, f.E
		if cfg.Budget == 3 {
			cfg.Budget = 4 // the Fig 1 optimum needs the Example 3.3 budget
		}
	} else {
		convert := a.saveSnapshot != "" && a.query == "" && a.exemplar == ""
		if a.graph == "" || !convert && (a.query == "" || a.exemplar == "") {
			return fmt.Errorf("need -graph, -query, and -exemplar (or -demo)")
		}
		// The question is read before the graph, so a mistake in it shows
		// before the graph's load time.
		var err error
		if !convert {
			if q, err = load(a.query, query.ReadJSON); err != nil {
				return err
			}
			if e, err = load(a.exemplar, exemplar.ReadJSON); err != nil {
				return err
			}
		}
		res, err := graphload.Open(a.graph)
		if err != nil {
			return err
		}
		g, idx = res.G, res.Index
		if res.PLLRestored() {
			fmt.Fprintln(os.Stderr, "wqe: restored PLL distance index from snapshot")
		}
		if a.saveSnapshot != "" {
			if err := writeSnapshotFile(a.saveSnapshot, res); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "wqe: wrote snapshot", a.saveSnapshot)
			if convert {
				return nil
			}
		}
	}

	sess := chase.NewSessionWithIndex(g, cfg, idx)
	w, err := sess.Why(q, e)
	if err != nil {
		return err
	}

	fmt.Println("graph:   ", g)
	fmt.Println("query Q: ", q)
	fmt.Println("exemplar:", e)
	root := w.Matcher.Match(q)
	rm, im, rc, ic := w.Partition(root)
	fmt.Printf("Q(G) = %s\n", nodeList(g, root.Answer))
	fmt.Printf("relevance: |RM|=%d |IM|=%d |RC|=%d |IC|=%d  cl* = %.4f\n\n",
		len(rm), len(im), len(rc), len(ic), w.ClStar)

	var answers []chase.Answer
	var r chase.BatchResult // the search's outcome; topk's is read off the Why it ran on
	if a.algo == "topk" {
		answers = w.TopK(a.k)
		r = chase.BatchResult{Steps: w.Stats.Steps, States: w.Stats.States, Elapsed: w.Stats.Elapsed}
	} else if r = sess.Run(chase.BatchJob{Q: q, E: e, Algo: a.algo, Beam: a.beam}); r.Err != nil {
		return r.Err
	} else {
		answers = []chase.Answer{r.Answer}
	}

	for i, ans := range answers {
		if len(answers) > 1 {
			fmt.Printf("— rewrite #%d —\n", i+1)
		}
		printAnswer(g, ans)
	}
	fmt.Printf("search: %d chase steps, %d states, %v elapsed\n", r.Steps, r.States, r.Elapsed.Round(1000))
	return nil
}

func printAnswer(g *graph.Graph, a chase.Answer) {
	fmt.Println("rewrite Q':", a.Query)
	fmt.Printf("operators (cost %.2f):\n", a.Cost)
	for _, o := range a.Ops {
		fmt.Println("  ", o)
	}
	if len(a.Ops) == 0 {
		fmt.Println("   (none)")
	}
	fmt.Printf("closeness cl(Q'(G), E) = %.4f  satisfied=%v\n", a.Closeness, a.Satisfied)
	fmt.Printf("Q'(G) = %s\n", nodeList(g, a.Matches))
	if len(a.Diff) > 0 {
		fmt.Println("differential table:")
		for _, d := range a.Diff {
			fmt.Println("  ", d)
		}
	}
	fmt.Println("explanation:")
	fmt.Print(a.Explain(g))
	fmt.Println()
}

// nodeList renders nodes with their Name attribute when present.
func nodeList(g *graph.Graph, nodes []graph.NodeID) string {
	out := "{"
	for i, v := range nodes {
		if i > 0 {
			out += ", "
		}
		if name, ok := g.Attr(v, "Name"); ok {
			out += name.String()
		} else {
			out += fmt.Sprintf("#%d(%s)", v, g.Label(v))
		}
	}
	return out + "}"
}

// writeSnapshotFile writes the loaded graph as a binary snapshot,
// carrying any restored PLL labels through so the snapshot stays as
// capable as its source.
func writeSnapshotFile(path string, res *graphload.Result) error {
	var aux []byte
	if pll, ok := res.Index.(*distindex.PLL); ok {
		aux = pll.Marshal()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := res.G.WriteSnapshot(f, aux)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// load reads the document at path with read.
func load[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		return *new(T), err
	}
	defer f.Close()
	return read(f)
}
