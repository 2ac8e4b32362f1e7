package distindex

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"wqe/internal/graph"
)

// TestPLLMarshalRoundTrip: on small graphs of each regime, the restored
// index has the built one's labels, answers Dist, and Within at every
// bound, as it does on every pair of nodes, and re-marshals to the same
// bytes.
func TestPLLMarshalRoundTrip(t *testing.T) {
	for _, sh := range []struct{ n, m int }{{12, 15}, {20, 60}, {15, 120}, {10, 0}, {40, 120}} {
		for seed := int64(1); seed <= 3; seed++ {
			g := randomGraph(sh.n, sh.m, seed)
			p := NewPLLParallel(g, 2)
			blob := p.Marshal()
			r, err := UnmarshalPLL(g, blob)
			if err != nil {
				t.Fatalf("UnmarshalPLL: %v", err)
			}
			if !labelsEqual(t, p, r) {
				t.Fatalf("n=%d m=%d seed=%d: restored labels differ from the marshaled index", sh.n, sh.m, seed)
			}
			for a := 0; a < sh.n; a++ {
				for b := 0; b < sh.n; b++ {
					s, d := graph.NodeID(a), graph.NodeID(b)
					if got, want := r.Dist(s, d), p.Dist(s, d); got != want {
						t.Fatalf("n=%d m=%d seed=%d: restored Dist(%d,%d) = %d, built %d", sh.n, sh.m, seed, a, b, got, want)
					}
					for bound := 0; bound <= 4; bound++ {
						if got, want := r.Within(s, d, bound), p.Within(s, d, bound); got != want {
							t.Fatalf("n=%d m=%d seed=%d: restored Within(%d,%d,%d) = %v, built %v", sh.n, sh.m, seed, a, b, bound, got, want)
						}
					}
				}
			}
			if !bytes.Equal(blob, r.Marshal()) {
				t.Fatalf("n=%d m=%d seed=%d: re-marshal differs", sh.n, sh.m, seed)
			}
		}
	}
}

func TestPLLUnmarshalRejects(t *testing.T) {
	g := randomGraph(20, 50, 3)
	blob := NewPLL(g).Marshal()

	if _, err := UnmarshalPLL(randomGraph(21, 50, 3), blob); err == nil ||
		!strings.Contains(err.Error(), "nodes") {
		t.Errorf("size mismatch not rejected clearly: %v", err)
	}
	for _, cut := range []int{0, 4, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalPLL(g, blob[:cut]); err == nil {
			t.Errorf("truncation at %d not rejected", cut)
		}
	}
	if _, err := UnmarshalPLL(g, append([]byte(nil), append(blob, 0)...)); err == nil {
		t.Errorf("trailing bytes not rejected")
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	if _, err := UnmarshalPLL(g, bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not rejected clearly: %v", err)
	}
	bad = append([]byte(nil), blob...)
	bad[8] = 0x7F // version field
	if _, err := UnmarshalPLL(g, bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew not rejected clearly: %v", err)
	}
}

// TestPLLSnapshotEmbedding is the composition the server cold path
// uses: graph + marshaled PLL through one snapshot file, restored into
// an index that answers identically.
func TestPLLSnapshotEmbedding(t *testing.T) {
	g := randomGraph(30, 90, 11)
	p := NewPLL(g)
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, p.Marshal()); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap, err := graph.ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	r, err := UnmarshalPLL(snap.G, snap.Aux)
	if err != nil {
		t.Fatalf("UnmarshalPLL(aux): %v", err)
	}
	for a := 0; a < g.NumNodes(); a++ {
		for b := 0; b < g.NumNodes(); b++ {
			if p.Dist(graph.NodeID(a), graph.NodeID(b)) != r.Dist(graph.NodeID(a), graph.NodeID(b)) {
				t.Fatalf("embedded restore Dist(%d,%d) differs", a, b)
			}
		}
	}
}

// fuzzPLLGraph is the graph every FuzzUnmarshalPLL input is read over.
func fuzzPLLGraph() *graph.Graph { return randomGraph(12, 30, 5) }

// FuzzUnmarshalPLL: any blob the reader accepts must re-marshal to the
// same bytes and answer every query without panicking. The committed
// seeds are a valid blob, one cut short in each section, bad magic, a
// rank array that is not a permutation, and labels out of rank order.
func FuzzUnmarshalPLL(f *testing.F) {
	g := fuzzPLLGraph()
	f.Add(NewPLL(g).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPLL(g, data)
		if err != nil {
			return
		}
		if !bytes.Equal(p.Marshal(), data) {
			t.Fatalf("accepted blob does not re-marshal byte-identically")
		}
		for a := 0; a < g.NumNodes(); a++ {
			for b := 0; b < g.NumNodes(); b++ {
				p.Dist(graph.NodeID(a), graph.NodeID(b))
				p.Within(graph.NodeID(a), graph.NodeID(b), 2)
			}
		}
	})
}

// TestPLLUnmarshalRejectsBadLabels corrupts one structural property of a
// valid blob at a time, each of which would make Dist or Within answer
// wrong without failing, and requires the reader to refuse it.
func TestPLLUnmarshalRejectsBadLabels(t *testing.T) {
	g := fuzzPLLGraph()
	p := NewPLL(g)
	blob := p.Marshal()
	n := g.NumNodes()
	rankAt := len(pllMagic) + 4 + 8
	inEntAt := rankAt + 4*n + 4*(n+1)
	v := -1 // a node with two in-labels
	for i := 0; i < n && v < 0; i++ {
		if p.in.off[i+1]-p.in.off[i] >= 2 {
			v = i
		}
	}
	if v < 0 {
		t.Fatal("no node has two in-labels")
	}
	entry := inEntAt + 8*int(p.in.off[v])
	for _, c := range []struct {
		name, want string
		corrupt    func(b []byte)
	}{
		{"rank array not a permutation", "permutation", func(b []byte) {
			copy(b[rankAt+4:rankAt+8], b[rankAt:rankAt+4])
		}},
		{"labels out of rank order", "rank-sorted", func(b []byte) {
			var tmp [8]byte
			copy(tmp[:], b[entry:entry+8])
			copy(b[entry:entry+8], b[entry+8:entry+16])
			copy(b[entry+8:entry+16], tmp[:])
		}},
		{"repeated landmark", "rank-sorted", func(b []byte) {
			copy(b[entry+8:entry+12], b[entry:entry+4])
		}},
		{"landmark rank out of range", "out of range", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entry+8:], uint32(n))
		}},
		{"negative distance", "out of range", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entry+4:], 1<<31)
		}},
		{"offsets not monotonic", "monotonic", func(b []byte) {
			at := rankAt + 4*n + 4*(v+1)
			binary.LittleEndian.PutUint32(b[at:], binary.LittleEndian.Uint32(b[at:])+1<<20)
		}},
	} {
		bad := append([]byte(nil), blob...)
		c.corrupt(bad)
		if _, err := UnmarshalPLL(g, bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error about %q", c.name, err, c.want)
		}
	}
}
