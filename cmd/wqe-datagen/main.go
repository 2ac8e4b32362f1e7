// Command wqe-datagen emits the synthetic dataset analogs used by the
// experiment harness, as graph JSON or as a binary snapshot.
//
//	wqe-datagen -dataset dbpedia-like -nodes 20000 -seed 7 -out g.json
//	wqe-datagen -dataset products -nodes 1120000 -seed 7 \
//	    -snapshot g.snap -embed-pll
//
// -snapshot writes the versioned binary format of
// internal/graph/snapshot.go (orders of magnitude faster to load than
// JSON at million-node sizes); -embed-pll additionally builds the PLL
// distance index and embeds its labels, which graphload restores though
// no question reads them. Both -out and -snapshot may be given to
// emit the two formats in one run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
)

func main() {
	var (
		dataset = flag.String("dataset", datagen.DatasetKnowledge,
			"one of: "+strings.Join(datagen.AllDatasets(), ", "))
		nodes    = flag.Int("nodes", 20000, "approximate node count")
		seed     = flag.Int64("seed", 7, "generator seed")
		out      = flag.String("out", "", "JSON output file (default stdout when -snapshot is not given)")
		snapshot = flag.String("snapshot", "", "binary snapshot output file")
		embedPLL = flag.Bool("embed-pll", false,
			"build the PLL distance index and embed its labels in the snapshot (requires -snapshot)")
	)
	flag.Parse()

	if *embedPLL && *snapshot == "" {
		fail(fmt.Errorf("-embed-pll requires -snapshot"))
	}

	g, err := datagen.Generate(*dataset, *nodes, *seed)
	if err != nil {
		fail(err)
	}

	if *out != "" || *snapshot == "" {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := g.WriteJSON(w); err != nil {
			fail(err)
		}
	}

	if *snapshot != "" {
		var aux []byte
		if *embedPLL {
			start := time.Now()
			pll := distindex.NewPLLParallel(g, runtime.GOMAXPROCS(0))
			aux = pll.Marshal()
			fmt.Fprintf(os.Stderr, "built PLL (%d labels) in %v\n",
				pll.LabelSize(), time.Since(start).Round(time.Millisecond))
		}
		if err := writeSnapshotFile(*snapshot, g, aux); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", g)
}

func writeSnapshotFile(path string, g *graph.Graph, aux []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := g.WriteSnapshot(f, aux)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wqe-datagen:", err)
	os.Exit(1)
}
