package graph

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"
)

// snapGraph builds a graph exercising every snapshot section: multiple
// labels, mixed number/string attributes (with sharing for the string
// table), parallel edges, labeled and unlabeled edges, attrless nodes.
func snapGraph(t testing.TB) *Graph {
	t.Helper()
	b := randomGraph(60, 150, 42)
	b.AddNode("Lonely", nil)
	d := b.AddNode("D", map[string]Value{"name": S("dup"), "alias": S("dup"), "z": N(-7.25)})
	b.AddEdge(0, d, "")
	b.AddEdge(0, d, "") // parallel edge
	return b.Build()
}

func snapBytes(t testing.TB, g *Graph, aux []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf, aux); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// assertGraphsEqual compares every part of the public read surface.
func assertGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size = (%d,%d), want (%d,%d)", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i := 0; i < want.NumNodes(); i++ {
		v := NodeID(i)
		if got.Label(v) != want.Label(v) {
			t.Fatalf("label mismatch at node %d: %q vs %q", i, got.Label(v), want.Label(v))
		}
		wt, gt := want.Tuple(v), got.Tuple(v)
		if len(wt) != len(gt) {
			t.Fatalf("tuple length mismatch at node %d", i)
		}
		for j := range wt {
			if want.Attrs.Name(wt[j].Attr) != got.Attrs.Name(gt[j].Attr) || !wt[j].Val.Equal(gt[j].Val) {
				t.Fatalf("tuple entry %d of node %d differs", j, i)
			}
		}
		wo, go_ := want.Out(v), got.Out(v)
		if len(wo) != len(go_) {
			t.Fatalf("out degree mismatch at node %d", i)
		}
		for j := range wo {
			if wo[j].To != go_[j].To || want.Labels.Name(wo[j].Label) != got.Labels.Name(go_[j].Label) {
				t.Fatalf("out edge %d of node %d differs", j, i)
			}
		}
		wi, gi := want.In(v), got.In(v)
		if len(wi) != len(gi) {
			t.Fatalf("in degree mismatch at node %d", i)
		}
		for j := range wi {
			if wi[j].To != gi[j].To || want.Labels.Name(wi[j].Label) != got.Labels.Name(gi[j].Label) {
				t.Fatalf("in edge %d of node %d differs", j, i)
			}
		}
	}
	for _, label := range []string{"", "A", "B", "C", "Lonely", "missing"} {
		wn, gn := want.NodesByLabel(label), got.NodesByLabel(label)
		if len(wn) != len(gn) {
			t.Fatalf("NodesByLabel(%q) size mismatch", label)
		}
		for j := range wn {
			if wn[j] != gn[j] {
				t.Fatalf("NodesByLabel(%q)[%d] differs", label, j)
			}
		}
	}
	if want.Diameter() != got.Diameter() {
		t.Fatalf("diameter mismatch: %d vs %d", got.Diameter(), want.Diameter())
	}
	d1, d2 := want.ActiveDomain("x"), got.ActiveDomain("x")
	if len(d1.Values) != len(d2.Values) || d1.Range() != d2.Range() {
		t.Fatalf("active domain mismatch")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := snapGraph(t)
	first := snapBytes(t, g, nil)

	snap, err := ReadSnapshot(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if snap.Version != SnapshotVersion {
		t.Fatalf("Version = %d, want %d", snap.Version, SnapshotVersion)
	}
	if snap.Aux != nil {
		t.Fatalf("Aux should be nil when none was written")
	}
	assertGraphsEqual(t, g, snap.G)

	// Golden determinism: write → read → write is byte-identical.
	second := snapBytes(t, snap.G, nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("re-written snapshot differs: %d vs %d bytes", len(first), len(second))
	}
}

func TestSnapshotAuxRoundTrip(t *testing.T) {
	g := snapGraph(t)
	aux := []byte("opaque index payload \x00\x01\x02")
	snap, err := ReadSnapshot(bytes.NewReader(snapBytes(t, g, aux)))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !bytes.Equal(snap.Aux, aux) {
		t.Fatalf("aux mismatch: %q", snap.Aux)
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := NewBuilder().Build()
	snap, err := ReadSnapshot(bytes.NewReader(snapBytes(t, g, nil)))
	if err != nil {
		t.Fatalf("ReadSnapshot(empty): %v", err)
	}
	if snap.G.NumNodes() != 0 || snap.G.NumEdges() != 0 {
		t.Fatalf("empty graph round-trip gained elements")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	full := snapBytes(t, snapGraph(t), []byte("aux"))
	for _, cut := range []int{0, 1, 7, 8, 55, snapHeaderLen, len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes not rejected", cut, len(full))
		}
	}
}

func TestSnapshotRejectsBitFlips(t *testing.T) {
	full := snapBytes(t, snapGraph(t), []byte("aux"))
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xFF
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipped byte %d/%d not rejected", i, len(full))
		}
	}
}

func TestSnapshotRejectsTrailingGarbage(t *testing.T) {
	full := snapBytes(t, snapGraph(t), nil)
	if _, err := ReadSnapshot(bytes.NewReader(append(full, 0))); err == nil {
		t.Fatalf("trailing byte not rejected")
	}
}

func TestSnapshotRejectsVersionSkew(t *testing.T) {
	full := snapBytes(t, snapGraph(t), nil)
	mut := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(mut[8:12], SnapshotVersion+1)
	// Re-sign the header so version skew — not the checksum — is what
	// the reader reports.
	h := fnv.New64a()
	hashBytes(h, mut[:48])
	binary.LittleEndian.PutUint64(mut[48:56], h.Sum64())
	_, err := ReadSnapshot(bytes.NewReader(mut))
	if err == nil {
		t.Fatalf("future version not rejected")
	}
	if !strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("version skew error not descriptive: %v", err)
	}
}

func TestSnapshotRejectsForeignFile(t *testing.T) {
	for _, data := range [][]byte{
		[]byte("{\"nodes\":[],\"edges\":[]}  pad pad pad pad pad pad pad pad pad pad"),
		bytes.Repeat([]byte{0xAB}, 200),
	} {
		_, err := ReadSnapshot(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("foreign file not rejected")
		}
		if !strings.Contains(err.Error(), "magic") {
			t.Fatalf("foreign-file error not about magic: %v", err)
		}
	}
}

func TestSniffSnapshot(t *testing.T) {
	full := snapBytes(t, NewBuilder().Build(), nil)
	if !SniffSnapshot(full) || !SniffSnapshot(full[:8]) {
		t.Error("valid snapshot prefix should sniff true")
	}
	if SniffSnapshot(full[:4]) || SniffSnapshot([]byte("{\"nodes\"")) || SniffSnapshot(nil) {
		t.Error("non-snapshot prefixes should sniff false")
	}
}

func FuzzSnapshotReader(f *testing.F) {
	f.Add(snapBytes(f, snapGraph(f), []byte("aux")))
	f.Add(snapBytes(f, NewBuilder().Build(), nil))
	f.Add(snapBytes(f, chain(5), nil))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("not a snapshot at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic/OOM
		}
		// Accepted input must satisfy the determinism contract:
		// re-encoding the graph reproduces the input exactly.
		var buf bytes.Buffer
		if err := snap.G.WriteSnapshot(&buf, snap.Aux); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted snapshot does not round-trip: %d vs %d bytes", buf.Len(), len(data))
		}
	})
}
