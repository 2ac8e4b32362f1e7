package graph

import (
	"bytes"
	"io"
	"testing"
)

// benchGraph is sized so loader costs dominate fixed overheads while
// keeping `go test -bench` runs quick; the 1M-node end-to-end numbers
// live in internal/chase's TestEmitLoadBench.
func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return randomGraph(20000, 60000, 7)
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
