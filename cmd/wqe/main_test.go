package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/jsonscan"
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
	// The question is read before the graph.
	noQuery := filepath.Join(dir, "noquery.json")
	err = run(testConfig(), question{graph: filepath.Join(dir, "missing.json"), query: noQuery, exemplar: ePath, algo: "answ"})
	if err == nil || !strings.Contains(err.Error(), noQuery) {
		t.Errorf("missing graph and query files: error %v, want one naming the query file", err)
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

// TestRunBatch: a jobs file is an array of the job objects
// chase.DecodeJob reads, where "query" and "exemplar" may be paths
// relative to the file. Each job must decode as its all-inline twin, a
// job with an unknown algorithm must fail only its own slot, and a
// mistake in the file must be reported before the graph is opened.
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
	text := func(name, body string) string {
		return write(name, func(fh io.Writer) error {
			_, err := io.WriteString(fh, body)
			return err
		})
	}
	gPath := write("g.json", f.G.WriteJSON)
	write("q.json", f.Q.WriteJSON)
	write("e.json", f.E.WriteJSON)
	var qb, eb bytes.Buffer
	if err := f.Q.WriteJSON(&qb); err != nil {
		t.Fatal(err)
	}
	if err := f.E.WriteJSON(&eb); err != nil {
		t.Fatal(err)
	}

	// Each job as the file holds it, then its all-inline twin.
	inline := `"query": ` + qb.String() + `, "exemplar": ` + eb.String()
	cases := [][2]string{
		{`"query": "q.json", "exemplar": "e.json"`, inline},
		{inline + `, "algo": "whymany"`, inline + `, "algo": "whymany"`},
		{`"query": "q.json", "exemplar": ` + eb.String() + `, "beam": 2, "max_steps": 5, "time_limit_ms": 50`,
			inline + `, "beam": 2, "max_steps": 5, "time_limit_ms": 50`},
		{`"exemplar": "e.json", "algo": "nope", "query": "q.json"`, inline + `, "algo": "nope"`},
	}
	var file []string
	for _, c := range cases {
		file = append(file, "{"+c[0]+"}")
	}
	jobsPath := text("jobs.json", "[\n"+strings.Join(file, ",\n")+"\n]\n")
	jobs, err := loadJobs(jobsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(cases) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(cases))
	}
	for i, c := range cases {
		var (
			r     jsonscan.Reader
			types jsonscan.Sticky
			want  chase.BatchJob
		)
		r.Reset([]byte("{" + c[1] + "}"))
		if bad, err := chase.DecodeJob(&r, &want, &types, nil); bad != nil || err != nil || types.Err != nil {
			t.Fatalf("twin of job #%d: %v, %v, %v", i+1, bad, err, types.Err)
		}
		got := jobs[i]
		if got.Algo != want.Algo || got.Beam != want.Beam || got.MaxSteps != want.MaxSteps || got.TimeLimit != want.TimeLimit ||
			got.Q.Key() != want.Q.Key() || !bytes.Equal(got.E.AppendKey(nil), want.E.AppendKey(nil)) {
			t.Errorf("job #%d = %+v, want %+v", i+1, got, want)
		}
	}
	if j := jobs[2]; jobs[1].Algo != "whymany" || j.Beam != 2 || j.MaxSteps != 5 || j.TimeLimit != 50*time.Millisecond {
		t.Errorf("jobs #2 and #3 = %+v, %+v: the overrides were not read", jobs[1], j)
	}
	cfg := testConfig()
	cfg.Workers = 2
	results, _ := chase.NewSession(f.G, cfg).AskAll(jobs)
	for i, r := range results {
		if (r.Err != nil) != (i == 3) {
			t.Errorf("job #%d (algo %q): error %v", i+1, jobs[i].Algo, r.Err)
		}
	}
	if err := runBatch(cfg, gPath, jobsPath); err != nil {
		t.Fatalf("runBatch: %v", err)
	}

	if err := runBatch(testConfig(), "", jobsPath); err == nil {
		t.Error("batch without -graph must error")
	}
	for _, tc := range []struct{ name, body string }{
		{"missing.json", ""},
		{"empty.json", `[]`},
		{"badref.json", `[{"query": "nope.json", "exemplar": "e.json"}]`},
		{"noexemplar.json", `[{"query": "q.json"}]`},
		{"notjson.json", `[{"query": "q.json", "exemplar": "e.json"},]`},
		{"trailing.json", `[{"query": "q.json", "exemplar": "e.json"}] []`},
	} {
		p := filepath.Join(dir, tc.name)
		if tc.body != "" {
			p = text(tc.name, tc.body)
		}
		// The graph path is missing too: the jobs file's error must come
		// first.
		err := runBatch(testConfig(), filepath.Join(dir, "nograph.json"), p)
		if err == nil || !strings.Contains(err.Error(), p) {
			t.Errorf("%s: error %v, want one naming the jobs file", tc.name, err)
		}
	}
}
