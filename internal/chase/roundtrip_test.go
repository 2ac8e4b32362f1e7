package chase_test

import (
	"bytes"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/graphload"
)

// TestJSONAndSnapshotAnswersEqual: the same seeded questions, on a graph
// of each dataset kind, get byte-identical answers from the graph read
// from JSON with a PLL built over it and from the graph read from a
// snapshot with the PLL restored from it. The two loads share nothing
// but the file contents: tuples, code column, adjacency and index are
// each built on one side and read on the other.
func TestJSONAndSnapshotAnswersEqual(t *testing.T) {
	for _, kind := range datagen.AllDatasets() {
		t.Run(kind, func(t *testing.T) {
			g, err := datagen.Generate(kind, 800, 7)
			if err != nil {
				t.Fatal(err)
			}
			var js, snap bytes.Buffer
			if err := g.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			if err := g.WriteSnapshot(&snap, distindex.NewPLL(g).Marshal()); err != nil {
				t.Fatal(err)
			}
			fromJSON, err := graphload.Read(&js)
			if err != nil {
				t.Fatal(err)
			}
			fromSnap, err := graphload.Read(&snap)
			if err != nil {
				t.Fatal(err)
			}
			if fromJSON.Source != graphload.SourceJSON || fromJSON.PLLRestored() || !fromSnap.PLLRestored() {
				t.Fatalf("loads: %s (restored %v), %s (restored %v)",
					fromJSON.Source, fromJSON.PLLRestored(), fromSnap.Source, fromSnap.PLLRestored())
			}
			jsonPLL := distindex.NewPLL(fromJSON.G)
			instances := genWhyOn(t, fromJSON.G, jsonPLL, 3, 11, whySpec)
			jobs := make([]chase.BatchJob, len(instances))
			for i, inst := range instances {
				jobs[i] = chase.BatchJob{Q: inst.Q, E: inst.E, Beam: 3, MaxSteps: 200}
			}
			cfg := chase.DefaultConfig()
			cfg.MaxSteps = 200
			ask := func(g *graph.Graph, idx distindex.Index) string {
				g.WarmCaches()
				return askTranscript(t, chase.NewSessionWithIndex(g, cfg, idx), jobs)
			}
			want := ask(fromJSON.G, jsonPLL)
			if got := ask(fromSnap.G, fromSnap.Index); got != want {
				t.Fatalf("snapshot-loaded answers differ from JSON-loaded ones:\n--- json\n%s--- snapshot\n%s", want, got)
			}
		})
	}
}
