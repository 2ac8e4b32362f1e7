package chase_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/graphload"
)

// askTranscript runs every job through the session and renders the
// answers into one comparable string.
func askTranscript(t *testing.T, sess *chase.Session, jobs []chase.BatchJob) string {
	t.Helper()
	results, _ := sess.AskAll(jobs)
	var b strings.Builder
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job #%d failed: %v", i+1, r.Err)
		}
		b.WriteString(renderAnswer(r.Answer))
		b.WriteByte('\n')
	}
	return b.String()
}

// snapshotRoundTrip writes g (plus the index's labels) to the snapshot
// format and reads it back, returning the restored graph and index.
func snapshotRoundTrip(t *testing.T, dir string, g *graph.Graph, pll *distindex.PLL) (*graph.Graph, *distindex.PLL) {
	t.Helper()
	path := filepath.Join(dir, "g.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSnapshot(f, pll.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := graphload.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := res.Index.(*distindex.PLL)
	if !ok || !res.PLLRestored() {
		t.Fatalf("snapshot did not restore a PLL index: %+v", res)
	}
	return res.G, restored
}

// TestSnapshotRestoredAnswersByteIdentical is the acceptance bar for
// the binary snapshot path: a fixed Why-question workload answered
// over a snapshot-restored graph (with its restored PLL index) must be
// byte-identical to the same workload over the freshly built graph.
// This runs unconditionally — the 1M-node emitter below repeats it at
// scale when invoked.
func TestSnapshotRestoredAnswersByteIdentical(t *testing.T) {
	g, err := datagen.Generate(datagen.DatasetProducts, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pll := distindex.NewPLL(g)
	instances := genWhyOn(t, g, pll, 3, 7, whySpec)
	jobs := make([]chase.BatchJob, len(instances))
	for i, inst := range instances {
		jobs[i] = chase.BatchJob{Q: inst.Q, E: inst.E, Beam: 4, MaxSteps: 800}
	}
	cfg := chase.DefaultConfig()
	cfg.MaxSteps = 800

	fresh := askTranscript(t, chase.NewSessionWithIndex(g, cfg, pll), jobs)
	g2, pll2 := snapshotRoundTrip(t, t.TempDir(), g, pll)
	restored := askTranscript(t, chase.NewSessionWithIndex(g2, cfg, pll2), jobs)
	if fresh != restored {
		t.Fatalf("restored-session answers diverged from fresh-session answers:\n--- fresh\n%s--- restored\n%s", fresh, restored)
	}
	if fresh == "" {
		t.Fatal("empty transcript: workload exercised nothing")
	}
}

// loadBench is the BENCH_load.json schema: cold-start cost of the two
// on-disk formats at million-node scale — load wall time, bytes on
// disk, heap residency, PLL build vs restore — plus the answered
// workload proving the restored graph is answer-identical.
type loadBench struct {
	GeneratedBy string `json:"generated_by"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Workload    string `json:"workload"`

	Nodes int `json:"nodes"`
	Edges int `json:"edges"`

	JSONBytes     int64   `json:"json_bytes"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	JSONLoadMS    float64 `json:"json_load_ms"`
	SnapLoadMS    float64 `json:"snapshot_load_ms"`
	LoadSpeedup   float64 `json:"load_speedup"`

	// Heap figures in MiB (HeapAlloc after GC, minus the pre-load
	// baseline). Both graph figures are taken after WarmCaches, so both
	// include the code column: the JSON-loaded graph builds it, the
	// snapshot-loaded one reads it. The PLL figure is the restored index
	// alone, taken after the aux blob it was restored from is released;
	// the blob figure is that blob's size, which the snapshot graph
	// figure excludes.
	JSONHeapMB float64 `json:"json_heap_mb"`
	SnapHeapMB float64 `json:"snapshot_heap_mb"`
	PLLHeapMB  float64 `json:"pll_heap_mb"`
	AuxBlobMB  float64 `json:"aux_blob_mb"`

	PLLLabels    int     `json:"pll_labels"`
	PLLBuildMS   float64 `json:"pll_build_ms"`
	PLLRestoreMS float64 `json:"pll_restore_ms"`
	PLLSpeedup   float64 `json:"pll_restore_speedup"`

	AskJobs         int     `json:"ask_jobs"`
	AskMS           float64 `json:"ask_ms"`
	AskJobsPerSec   float64 `json:"ask_jobs_per_sec"`
	OutputIdentical bool    `json:"output_identical"`

	Note string `json:"note"`
}

// loadRepeats is how many times each format is loaded; the fastest load
// is the one recorded.
const loadRepeats = 3

// heapMB runs a GC and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// warnSingleCore makes a one-core recording impossible to misread:
// the PLL build and the batched questions use every core, so the
// artifact must be regenerated on a multi-core runner (CI does this)
// before those two figures mean anything.
func warnSingleCore(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) == 1 {
		t.Log("*** WARNING: ran with GOMAXPROCS=1, so the parallel PLL build and the batched " +
			"questions degenerated to sequential; regenerate the artifact on a multi-core machine ***")
	}
}

// guardSingleCoreOverwrite skips the emitter when it would replace an
// existing multi-core recording with a single-core one: a laptop or
// container run must not silently clobber CI's numbers. The artifact
// carries "gomaxprocs", so the guard reads it from the existing file.
// WQE_BENCH_FORCE=1 overrides (for deliberately re-baselining on a
// small machine).
func guardSingleCoreOverwrite(t *testing.T, out string) {
	t.Helper()
	if skip, prev := shouldSkipOverwrite(out, runtime.GOMAXPROCS(0),
		os.Getenv("WQE_BENCH_FORCE") == "1"); skip {
		t.Skipf("refusing to overwrite %s (recorded with GOMAXPROCS=%d) from a single-core run; set WQE_BENCH_FORCE=1 to override", out, prev)
	}
}

// shouldSkipOverwrite is the guard's decision: skip iff this run is
// single-core, unforced, and the existing artifact at out records a
// multi-core run (whose GOMAXPROCS it returns).
func shouldSkipOverwrite(out string, gomaxprocs int, force bool) (bool, int) {
	if gomaxprocs > 1 || force {
		return false, 0
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return false, 0 // nothing to clobber
	}
	var prev struct {
		GOMAXPROCS int `json:"gomaxprocs"`
	}
	if json.Unmarshal(data, &prev) != nil || prev.GOMAXPROCS <= 1 {
		return false, 0 // unreadable, or itself single-core: nothing of value lost
	}
	return true, prev.GOMAXPROCS
}

// TestEmitLoadBench measures snapshot vs JSON cold start at 1M+ nodes
// and writes BENCH_load.json. Gated behind WQE_LOAD_BENCH_JSON: set it
// to 1 to write the repo default, or to an explicit output path;
// WQE_LOAD_BENCH_NODES overrides the instance size. `make bench-load`
// wraps this. The load-time criterion — the snapshot, which exists to
// make cold starts fast, loads no slower than the JSON — and the
// byte-identical-answers criterion are asserted, not just recorded.
func TestEmitLoadBench(t *testing.T) {
	out := os.Getenv("WQE_LOAD_BENCH_JSON")
	if out == "" {
		t.Skip("set WQE_LOAD_BENCH_JSON=1 (or to an output path) to emit BENCH_load.json")
	}
	if out == "1" {
		out = filepath.Join("..", "..", "BENCH_load.json")
	}
	guardSingleCoreOverwrite(t, out)

	// Products yields ~0.9 nodes per requested node; 1,120,000 lands
	// the instance just above the million-node bar.
	nodes := 1_120_000
	if s := os.Getenv("WQE_LOAD_BENCH_NODES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad WQE_LOAD_BENCH_NODES=%q", s)
		}
		nodes = n
	}
	const nJobs = 3
	dir := t.TempDir()

	g, err := datagen.Generate(datagen.DatasetProducts, nodes, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("generated %s", g)

	jsonPath := filepath.Join(dir, "g.json")
	jf, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(jf); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	buildStart := time.Now()
	pll := distindex.NewPLLParallel(g, 0)
	buildDur := time.Since(buildStart)
	t.Logf("built PLL (%d labels) in %v", pll.LabelSize(), buildDur.Round(time.Millisecond))

	snapPath := filepath.Join(dir, "g.snap")
	sf, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteSnapshot(sf, pll.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	jsonSize := fileSize(t, jsonPath)
	snapSize := fileSize(t, snapPath)

	// Cold loads, each format timed as the fastest of loadRepeats: one
	// shot of a 1–10 s load on a shared box reads whatever else ran
	// beside it (single-shot ratios spread 6.7x–12.0x on a 2-CPU box).
	// Heap deltas are measured GC-to-GC around the last load so the
	// generator graph held above cancels out.
	var jsonDur, snapDur time.Duration
	var jsonHeap float64
	for i := 0; i < loadRepeats; i++ {
		base := heapMB()
		start := time.Now()
		jres, err := graphload.Open(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < jsonDur {
			jsonDur = d
		}
		jres.G.WarmCaches()
		jsonHeap = heapMB() - base
		if jres.G.NumNodes() != g.NumNodes() || jres.G.NumEdges() != g.NumEdges() {
			t.Fatalf("JSON load shape %v, want %v", jres.G, g)
		}
	}

	var snap *graph.Snapshot
	var base float64
	for i := 0; i < loadRepeats; i++ {
		snap = nil // release the previous load before the baseline
		base = heapMB()
		start := time.Now()
		sfh, err := os.Open(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err = graph.ReadSnapshot(sfh); err != nil {
			t.Fatal(err)
		}
		if err := sfh.Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < snapDur {
			snapDur = d
		}
	}
	snap.G.WarmCaches()
	blobMB := float64(cap(snap.Aux)) / (1 << 20)
	snapHeap := heapMB() - base - blobMB
	restoreStart := time.Now()
	restoredPLL, err := distindex.UnmarshalPLL(snap.G, snap.Aux)
	if err != nil {
		t.Fatal(err)
	}
	restoreDur := time.Since(restoreStart)
	snap.Aux = nil
	pllHeap := heapMB() - base - snapHeap
	if snap.G.NumNodes() != g.NumNodes() || snap.G.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot load shape %v, want %v", snap.G, g)
	}

	// The answered workload: identical jobs over the freshly built
	// session and the snapshot-restored one, compared byte for byte;
	// the restored run's wall time is the recorded throughput.
	instances := genWhyOn(t, g, pll, nJobs, 7, whySpec)
	jobs := make([]chase.BatchJob, len(instances))
	for i, inst := range instances {
		jobs[i] = chase.BatchJob{Q: inst.Q, E: inst.E, Beam: 3, MaxSteps: 50}
	}
	cfg := chase.DefaultConfig()
	cfg.MaxSteps = 50
	fresh := askTranscript(t, chase.NewSessionWithIndex(g, cfg, pll), jobs)
	askStart := time.Now()
	restored := askTranscript(t, chase.NewSessionWithIndex(snap.G, cfg, restoredPLL), jobs)
	askDur := time.Since(askStart)

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	b := loadBench{
		GeneratedBy: "WQE_LOAD_BENCH_JSON=1 go test ./internal/chase -run TestEmitLoadBench (make bench-load)",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Workload: "products n=" + strconv.Itoa(nodes) + ": JSON vs binary-snapshot cold start, " +
			"PLL build vs embedded-label restore, then 3 Why-questions (AnsHeu(3), MaxSteps=50) " +
			"answered over the restored graph and compared byte-for-byte to the fresh one",
		Nodes:           g.NumNodes(),
		Edges:           g.NumEdges(),
		JSONBytes:       jsonSize,
		SnapshotBytes:   snapSize,
		JSONLoadMS:      ms(jsonDur),
		SnapLoadMS:      ms(snapDur),
		LoadSpeedup:     float64(jsonDur) / float64(snapDur),
		JSONHeapMB:      jsonHeap,
		SnapHeapMB:      snapHeap,
		PLLHeapMB:       pllHeap,
		AuxBlobMB:       blobMB,
		PLLLabels:       pll.LabelSize(),
		PLLBuildMS:      ms(buildDur),
		PLLRestoreMS:    ms(restoreDur),
		PLLSpeedup:      float64(buildDur) / float64(restoreDur),
		AskJobs:         nJobs,
		AskMS:           ms(askDur),
		AskJobsPerSec:   float64(nJobs) / askDur.Seconds(),
		OutputIdentical: fresh == restored,
	}
	b.Note = fmt.Sprintf("snapshot load measured %.1fx faster than JSON load, each the fastest of %d loads "+
		"(no slower is asserted); the snapshot figure excludes PLL restore, which is recorded "+
		"separately against the build it replaces", b.LoadSpeedup, loadRepeats)
	if !b.OutputIdentical {
		t.Fatalf("restored-session answers diverged from fresh-session answers:\n--- fresh\n%s--- restored\n%s", fresh, restored)
	}
	if snapDur > jsonDur {
		t.Errorf("snapshot load %.1fms is slower than JSON load %.1fms", b.SnapLoadMS, b.JSONLoadMS)
	}
	warnSingleCore(t)

	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	t.Logf("wrote %s: load %.0fms->%.0fms (%.1fx, %d->%d bytes), PLL %.0fms->%.0fms (%.1fx), %d jobs in %.0fms",
		out, b.JSONLoadMS, b.SnapLoadMS, b.LoadSpeedup, b.JSONBytes, b.SnapshotBytes,
		b.PLLBuildMS, b.PLLRestoreMS, b.PLLSpeedup, nJobs, b.AskMS)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
