package graph_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"wqe/internal/datagen"
	"wqe/internal/graph"
)

// TestReadJSONStreamsTokens feeds documents in which every kind of
// token — escapes, non-ASCII strings, numbers, literals, skipped values —
// meets a refill in its middle when read one byte at a time.
func TestReadJSONStreamsTokens(t *testing.T) {
	for _, doc := range []string{
		`{"comment":{"a":[1,-2.5e+3,true,false,null,"x\"y"]},` +
			`"nodes":[null,{"id":1,"label":"café 😀","attrs":{"p\/q":-0,"r":1e308,"s":"é\tñ 😀"}},` +
			`{"ID":2,"Label":"B","attrs":{"z":"a\u0000b","y":0.000125}}],` +
			`"edges":[{"src":1,"dst":2,"label":"\\e"},{"SRC":2,"dst":0}]}`,
		`{"edges":[{"src":1,"dst":0}],"nodes":[{"id":0,"label":"A"},` +
			`{"id":1,"label":"B","attrs":{"k":"v","k":7}}]}`,
	} {
		assertReadsAsOracle(t, []byte(doc))
	}
}

// TestReadJSONStreamsFixtures reads the Fig 1 fixture and a 1k-node
// graph of each dataset kind whole, one byte at a time and half a read
// at a time; each must write the snapshot the oracle's graph writes.
func TestReadJSONStreamsFixtures(t *testing.T) {
	fig1, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fig1", "graph.json"))
	if err != nil {
		t.Fatal(err)
	}
	assertReadsAsOracle(t, fig1)
	for _, name := range datagen.AllDatasets() {
		g, err := datagen.Generate(name, 1000, 7)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { assertReadsAsOracle(t, buf.Bytes()) })
	}
}

// assertReadsAsOracle reads data through ReadJSON whole, one byte at a
// time and half of each read at a time, and checks that each graph
// writes the snapshot bytes of the graph ReadJSONOracle reads.
func assertReadsAsOracle(t *testing.T, data []byte) {
	t.Helper()
	want, err := graph.ReadJSONOracle(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	wantSnap := snapshot(t, want)
	for _, r := range []io.Reader{
		bytes.NewReader(data),
		iotest.OneByteReader(bytes.NewReader(data)),
		iotest.HalfReader(bytes.NewReader(data)),
	} {
		g, err := graph.ReadJSON(r)
		if err != nil {
			t.Fatalf("ReadJSON through %T: %v", r, err)
		}
		if got := snapshot(t, g); !bytes.Equal(got, wantSnap) {
			t.Fatalf("ReadJSON through %T: snapshot differs from the oracle's (%d vs %d bytes)", r, len(got), len(wantSnap))
		}
	}
}

func snapshot(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
