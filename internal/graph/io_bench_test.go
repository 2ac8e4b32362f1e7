package graph

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"wqe/internal/jsonscan"
)

// benchGraph is sized so loader costs dominate fixed overheads while
// keeping `go test -bench` runs quick; the 1M-node end-to-end numbers
// live in internal/chase's TestEmitLoadBench.
func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return MustBuild(randomGraph(20000, 60000, 7))
}

// liveHeap returns the bytes the heap holds after two GCs.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// reportHeapPerNode stops the timer and reports heap-B/node: the live
// heap the last loaded graph *g holds, per node — the heap with it less
// the heap once *g is dropped.
func reportHeapPerNode(b *testing.B, g **Graph) {
	b.StopTimer()
	n := (*g).NumNodes()
	with := liveHeap()
	*g = nil
	b.ReportMetric((float64(with)-float64(liveHeap()))/float64(n), "heap-B/node")
}

// BenchmarkReadJSON measures the JSON loader in MB/s of WriteJSON
// output, and the heap the loaded graph holds (heap-B/node). The scanner
// allocates the arenas (sized by the meta header), interned names once
// each and attribute strings, and nothing per token: the encoding/json
// walk it replaced made 420 058 allocations for this graph's 20 000
// nodes and ≈ 60 000 edges.
func BenchmarkReadJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteJSON(&buf); err != nil {
		b.Fatalf("WriteJSON: %v", err)
	}
	data := buf.Bytes()
	var g *Graph
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		g, err = ReadJSON(bytes.NewReader(data))
		if err != nil {
			b.Fatalf("ReadJSON: %v", err)
		}
		if g.NumNodes() != 20000 {
			b.Fatalf("decoded %d nodes", g.NumNodes())
		}
	}
	reportHeapPerNode(b, &g)
}

// BenchmarkReadSnapshot is BenchmarkReadJSON for the binary snapshot.
func BenchmarkReadSnapshot(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteSnapshot(&buf, nil); err != nil {
		b.Fatalf("WriteSnapshot: %v", err)
	}
	data := buf.Bytes()
	var g *Graph
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			b.Fatalf("ReadSnapshot: %v", err)
		}
		if g = snap.G; g.NumNodes() != 20000 {
			b.Fatalf("decoded %d nodes", g.NumNodes())
		}
	}
	reportHeapPerNode(b, &g)
}

func BenchmarkWriteSnapshot(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteSnapshot(io.Discard, nil); err != nil {
			b.Fatalf("WriteSnapshot: %v", err)
		}
	}
}

// TestReadJSONStreamsEdgesBeforeNodes covers the buffered-edges path:
// hand-authored files may put the edges section first.
func TestReadJSONEdgesBeforeNodes(t *testing.T) {
	const doc = `{"edges":[{"src":0,"dst":1,"label":"e"}],` +
		`"nodes":[{"id":0,"label":"A"},{"id":1,"label":"B"}]}`
	g, err := ReadJSON(bytes.NewReader([]byte(doc)))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("size = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	if out := g.Out(0); len(out) != 1 || out[0].To != 1 {
		t.Fatalf("Out(0) = %v", out)
	}
}

// TestReadJSONIgnoresUnknownKeys: the meta header must be optional and
// unknown top-level keys skipped, so older files and hand-authored
// fixtures keep loading.
func TestReadJSONUnknownAndMetaKeys(t *testing.T) {
	const doc = `{"comment":"hi","meta":{"nodes":1,"edges":0,"attr_entries":1},` +
		`"nodes":[{"id":0,"label":"A","attrs":{"x":3}}],"edges":[]}`
	g, err := ReadJSON(bytes.NewReader([]byte(doc)))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if v, ok := g.Attr(0, "x"); !ok || !v.Equal(N(3)) {
		t.Fatalf("attr lost: %v %v", v, ok)
	}
}

// TestReadJSONDistrustsMeta: "meta" counts are claims, not input. A
// header claiming 10¹⁰ elements of each kind used to reserve them before
// the first element arrived — a fatal out-of-memory error from a 40-byte
// file. Now such a document reads as the graph its elements make, and
// what it allocates is bounded by the input, not by the claim: nothing
// for a header alone, one first reservation per arena the elements use.
func TestReadJSONDistrustsMeta(t *testing.T) {
	for _, tc := range []struct {
		doc          string
		nodes, edges int
		maxAlloc     uint64
	}{
		{`{"meta":{"nodes":10000000000}}`, 0, 0, 1 << 20},
		{`{"meta":{"nodes":10000000000,"edges":10000000000,"attr_entries":10000000000}}`, 0, 0, 1 << 20},
		{`{"meta":{"nodes":4611686018427387904,"edges":4611686018427387904,"attr_entries":4611686018427387904},` +
			`"nodes":[{"id":0,"label":"A","attrs":{"p":1}},{"id":1}],"edges":[{"src":1,"dst":0}]}`, 2, 1, 8 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadJSON(bytes.NewReader([]byte(tc.doc)))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("ReadJSON(%s): %v", tc.doc, err)
		}
		if g.NumNodes() != tc.nodes || g.NumEdges() != tc.edges {
			t.Errorf("ReadJSON(%s) = %d nodes, %d edges, want %d, %d", tc.doc, g.NumNodes(), g.NumEdges(), tc.nodes, tc.edges)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= tc.maxAlloc {
			t.Errorf("ReadJSON(%s) allocated %d bytes, want under %d", tc.doc, alloc, tc.maxAlloc)
		}
	}
}

// TestReadJSONGrowsToHonestMeta: an honest header larger than the first
// reservation still ends with the builder's arenas of exactly the
// claimed size, and a header claiming less than the input holds only
// stops the reserving; either way the graph is the one the oracle reads.
func TestReadJSONGrowsToHonestMeta(t *testing.T) {
	var buf bytes.Buffer
	if err := MustBuild(randomGraph(jsonFirstReserve+5, jsonFirstReserve+7, 3)).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want, err := ReadJSONOracle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	short := bytes.Replace(buf.Bytes(), []byte(fmt.Sprintf(`"nodes": %d,`, want.NumNodes())), []byte(`"nodes": 7,`), 1)
	if bytes.Equal(short, buf.Bytes()) {
		t.Fatal("meta header not found")
	}
	for i, doc := range [][]byte{buf.Bytes(), short} {
		got, err := ReadJSON(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("ReadJSON: %v", err)
		}
		if !bytes.Equal(snapBytes(t, got, nil), snapBytes(t, want, nil)) {
			t.Fatalf("document %d: ReadJSON's graph differs from the oracle's", i)
		}
		if i > 0 {
			continue
		}
		d := &jsonReader{sc: *jsonscan.NewReader(bytes.NewReader(doc)), b: NewBuilder()}
		if err := d.document(); err != nil {
			t.Fatalf("document: %v", err)
		}
		if b := d.b; cap(b.labels) != len(b.labels) || cap(b.attrArena) != len(b.attrArena) {
			t.Errorf("arena capacities %d/%d, want the claimed %d/%d", cap(b.labels), cap(b.attrArena),
				len(b.labels), len(b.attrArena))
		}
	}
}
