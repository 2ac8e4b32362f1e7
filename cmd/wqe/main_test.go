package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
)

// testConfig is the search the tests ask under: the defaults at the
// budget the Fig 1 optimum needs.
func testConfig() chase.Config {
	cfg := chase.DefaultConfig()
	cfg.Budget = 4
	return cfg
}

// TestRunDemo drives the CLI's full pipeline on the built-in example.
func TestRunDemo(t *testing.T) {
	for _, algo := range []string{"answ", "topk", "heu", "whymany", "whyempty", "fmansw"} {
		if err := run(testConfig(), question{algo: algo, k: 2, beam: 2, demo: true}); err != nil {
			t.Errorf("run(-demo, -algo %s): %v", algo, err)
		}
	}
	if err := run(testConfig(), question{algo: "bogus", demo: true}); err == nil {
		t.Error("unknown algorithm must error")
	}
	if err := run(testConfig(), question{algo: "answ"}); err == nil {
		t.Error("missing file flags must error")
	}
}

// TestRunFromFiles exercises the JSON loading path end to end.
func TestRunFromFiles(t *testing.T) {
	dir := t.TempDir()
	f := datagen.NewFig1()

	gPath := filepath.Join(dir, "g.json")
	gf, err := os.Create(gPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.G.WriteJSON(gf); err != nil {
		t.Fatal(err)
	}
	gf.Close()

	qPath := filepath.Join(dir, "q.json")
	qf, _ := os.Create(qPath)
	if err := f.Q.WriteJSON(qf); err != nil {
		t.Fatal(err)
	}
	qf.Close()

	ePath := filepath.Join(dir, "e.json")
	ef, _ := os.Create(ePath)
	if err := f.E.WriteJSON(ef); err != nil {
		t.Fatal(err)
	}
	ef.Close()

	if err := run(testConfig(), question{graph: gPath, query: qPath, exemplar: ePath, algo: "answ"}); err != nil {
		t.Fatalf("run from files: %v", err)
	}
	if err := run(testConfig(), question{graph: filepath.Join(dir, "missing.json"), query: qPath, exemplar: ePath, algo: "answ"}); err == nil {
		t.Error("missing graph file must error")
	}
}

// TestRunSnapshotRoundTrip converts the JSON graph to a binary
// snapshot (-save-snapshot alone), then answers the same question from
// the snapshot — the sniffing loader must accept both formats.
func TestRunSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := datagen.NewFig1()

	write := func(name string, emit func(io.Writer) error) string {
		t.Helper()
		p := filepath.Join(dir, name)
		fh, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := emit(fh); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	gPath := write("g.json", f.G.WriteJSON)
	qPath := write("q.json", f.Q.WriteJSON)
	ePath := write("e.json", f.E.WriteJSON)

	snapPath := filepath.Join(dir, "g.snap")
	if err := run(testConfig(), question{graph: gPath, algo: "answ", saveSnapshot: snapPath}); err != nil {
		t.Fatalf("conversion run: %v", err)
	}
	if fi, err := os.Stat(snapPath); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not written: %v", err)
	}
	if err := run(testConfig(), question{graph: snapPath, query: qPath, exemplar: ePath, algo: "answ"}); err != nil {
		t.Fatalf("run from snapshot: %v", err)
	}
	// Snapshot-in, snapshot-out while answering in the same run.
	again := filepath.Join(dir, "g2.snap")
	if err := run(testConfig(), question{graph: snapPath, query: qPath, exemplar: ePath, algo: "answ", saveSnapshot: again}); err != nil {
		t.Fatalf("answer+save run: %v", err)
	}
	a, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("snapshot → snapshot conversion not byte-identical")
	}
}

// TestRunBatch exercises the batch mode end to end: a jobs file with
// relative paths, mixed algorithms, per-job overrides, and a failing
// job that must not disturb the others.
func TestRunBatch(t *testing.T) {
	dir := t.TempDir()
	f := datagen.NewFig1()

	write := func(name string, emit func(io.Writer) error) string {
		t.Helper()
		p := filepath.Join(dir, name)
		fh, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := emit(fh); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	gPath := write("g.json", f.G.WriteJSON)
	write("q.json", f.Q.WriteJSON)
	write("e.json", f.E.WriteJSON)

	jobs := write("jobs.json", func(fh io.Writer) error {
		_, err := io.WriteString(fh, `[
			{"query": "q.json", "exemplar": "e.json"},
			{"query": "q.json", "exemplar": "e.json", "beam": 2},
			{"query": "q.json", "exemplar": "e.json", "max_steps": 5, "time_limit_ms": 50}
		]`)
		return err
	})
	if err := runBatch(testConfig(), gPath, jobs, 2); err != nil {
		t.Fatalf("runBatch: %v", err)
	}

	if err := runBatch(testConfig(), "", jobs, 0); err == nil {
		t.Error("batch without -graph must error")
	}
	if err := runBatch(testConfig(), gPath, filepath.Join(dir, "missing.json"), 0); err == nil {
		t.Error("missing jobs file must error")
	}

	empty := write("empty.json", func(fh io.Writer) error {
		_, err := io.WriteString(fh, `[]`)
		return err
	})
	if err := runBatch(testConfig(), gPath, empty, 0); err == nil {
		t.Error("empty jobs file must error")
	}

	badRef := write("badref.json", func(fh io.Writer) error {
		_, err := io.WriteString(fh, `[{"query": "nope.json", "exemplar": "e.json"}]`)
		return err
	})
	if err := runBatch(testConfig(), gPath, badRef, 0); err == nil {
		t.Error("jobs referencing a missing query file must error")
	}
}
