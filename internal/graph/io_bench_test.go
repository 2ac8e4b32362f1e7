package graph

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// benchGraph is sized so loader costs dominate fixed overheads while
// keeping `go test -bench` runs quick; the 1M-node end-to-end numbers
// live in internal/chase's TestEmitLoadBench.
func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return randomGraph(20000, 60000, 7).Build()
}

// BenchmarkReadJSON measures the JSON loader in MB/s of WriteJSON
// output. The scanner allocates the arenas (sized by the meta header),
// interned names once each and attribute strings, and nothing per token:
// the encoding/json walk it replaced made 420 058 allocations for this
// graph's 20 000 nodes and ≈ 60 000 edges.
func BenchmarkReadJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteJSON(&buf); err != nil {
		b.Fatalf("WriteJSON: %v", err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			b.Fatalf("ReadJSON: %v", err)
		}
		if g.NumNodes() != 20000 {
			b.Fatalf("decoded %d nodes", g.NumNodes())
		}
	}
}

func BenchmarkReadSnapshot(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph(b).WriteSnapshot(&buf, nil); err != nil {
		b.Fatalf("WriteSnapshot: %v", err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			b.Fatalf("ReadSnapshot: %v", err)
		}
		if snap.G.NumNodes() != 20000 {
			b.Fatalf("decoded %d nodes", snap.G.NumNodes())
		}
	}
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
// reservation still ends with arenas of exactly the claimed size, and a
// header claiming less than the input holds only stops the reserving;
// either way the graph is the one the oracle reads.
func TestReadJSONGrowsToHonestMeta(t *testing.T) {
	var buf bytes.Buffer
	if err := randomGraph(jsonFirstReserve+5, jsonFirstReserve+7, 3).Build().WriteJSON(&buf); err != nil {
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
		if i == 0 && (cap(got.labels) != got.NumNodes() || cap(got.attrArena) != len(got.attrArena)) {
			t.Errorf("arena capacities %d/%d, want the claimed %d/%d", cap(got.labels), cap(got.attrArena),
				got.NumNodes(), len(got.attrArena))
		}
	}
}
