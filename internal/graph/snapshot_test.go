package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
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
	return MustBuild(b)
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
			if want.Attrs.Name(wt[j].Attr) != got.Attrs.Name(gt[j].Attr) || !want.Value(wt[j]).Equal(got.Value(gt[j])) {
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
	g := MustBuild(NewBuilder())
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
	// A future version, and version 1, which this build no longer reads:
	// the error must say how to re-save the file.
	for _, version := range []uint32{SnapshotVersion + 1, 1} {
		mut := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(mut[8:12], version)
		// Re-sign the header so version skew — not the checksum — is what
		// the reader reports.
		h := fnv.New64a()
		hashBytes(h, mut[:48])
		binary.LittleEndian.PutUint64(mut[48:56], h.Sum64())
		_, err := ReadSnapshot(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("version %d not rejected", version)
		}
		if !strings.Contains(err.Error(), "unsupported format version") || !strings.Contains(err.Error(), "-save-snapshot") {
			t.Fatalf("version skew error not descriptive: %v", err)
		}
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
	full := snapBytes(t, MustBuild(NewBuilder()), nil)
	if !SniffSnapshot(full) || !SniffSnapshot(full[:8]) {
		t.Error("valid snapshot prefix should sniff true")
	}
	if SniffSnapshot(full[:4]) || SniffSnapshot([]byte("{\"nodes\"")) || SniffSnapshot(nil) {
		t.Error("non-snapshot prefixes should sniff false")
	}
}

func FuzzSnapshotReader(f *testing.F) {
	f.Add(snapBytes(f, snapGraph(f), []byte("aux")))
	f.Add(snapBytes(f, MustBuild(NewBuilder()), nil))
	f.Add(snapBytes(f, chain(5), nil))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("not a snapshot at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic/OOM
		}
		// Accepted input is a graph Build admits, coded as Build codes it.
		b := NewBuilder()
		for a := int32(1); a < int32(snap.G.Attrs.Len()); a++ {
			b.Attrs.Intern(snap.G.Attrs.Name(a))
		}
		var tuple []AttrValue
		for v := NodeID(0); int(v) < snap.G.NumNodes(); v++ {
			tuple = tuple[:0]
			for _, c := range snap.G.Tuple(v) {
				tuple = append(tuple, AttrValue{Attr: c.Attr, Val: snap.G.Value(c)})
			}
			b.AddNodeTuple("", tuple)
		}
		if built, err := b.Build(); err != nil {
			t.Fatalf("accepted a snapshot Build refuses: %v", err)
		} else if msg := CodesDiff(built.Codes(), snap.G.Codes()); msg != "" {
			t.Fatalf("accepted a snapshot Build codes otherwise: %s", msg)
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

// cloneCodes copies c deeply enough that a test may doctor its cells and
// domains.
func cloneCodes(c *Codes) *Codes {
	d := &Codes{off: c.off, cells: slices.Clone(c.cells), base: slices.Clone(c.base), doms: make([]*Domain, len(c.doms))}
	for a, dom := range c.doms {
		if dom != nil {
			cp := *dom
			cp.Values = slices.Clone(dom.Values)
			d.doms[a] = &cp
		}
	}
	return d
}

// TestSnapshotRejectsNonCanonical writes snapshots, correctly
// checksummed, whose code column is not the one the graph's tuples give,
// and requires the reader to refuse each with the check it breaks.
func TestSnapshotRejectsNonCanonical(t *testing.T) {
	b := NewBuilder()
	for i, x := range []Value{N(0), N(1), N(2), N(5), N(negZero)} {
		// Interned m, s, x, z: z, the last attribute, holds strings.
		b.AddNode("P", map[string]Value{
			"m": []Value{N(1), S("1")}[i%2], "s": S(string(rune('a' + i%3))),
			"x": x, "z": S(string(rune('p' + i))),
		})
	}
	g := MustBuild(b)
	attr := func(name string) int32 {
		a, ok := g.Attrs.Lookup(name)
		if !ok {
			t.Fatalf("no attribute %q", name)
		}
		return a
	}
	x, z := attr("x"), attr("z")
	if z != int32(g.Attrs.Len()-1) {
		t.Fatalf("z has id %d, want the last", z)
	}
	for _, c := range []struct {
		name, want string
		doctor     func(c *Codes)
	}{
		{"as built", "", func(c *Codes) {}},
		{"domain not ascending", "not strictly ascending", func(c *Codes) {
			v := c.doms[x].Values
			v[2], v[3] = v[3], v[2]
		}},
		{"-0 before 0", "-0 in the domain", func(c *Codes) {
			d := c.doms[x]
			d.Values = slices.Insert(d.Values, 0, N(negZero))
			d.Numbers++
		}},
		{"duplicate domain value", "not strictly ascending", func(c *Codes) {
			c.doms[x].Values[3] = c.doms[x].Values[2]
		}},
		{"NaN in a domain", "NaN", func(c *Codes) {
			c.doms[x].Values[3] = N(math.NaN())
		}},
		{"domain value no cell uses", "no cell uses", func(c *Codes) {
			c.doms[z].Values = append(c.doms[z].Values, S("zzz"))
		}},
		{"domains outnumber the cells", "more values than", func(c *Codes) {
			for i := 0; i <= len(c.cells); i++ {
				c.doms[z].Values = append(c.doms[z].Values, S(fmt.Sprintf("zz%04d", i)))
			}
		}},
		{"code outside its attribute's range", "outside attribute", func(c *Codes) {
			for i := range c.cells {
				if c.cells[i].Attr == x {
					c.cells[i].Code = c.base[z]
					return
				}
			}
		}},
		{"attr id out of range", "attr id", func(c *Codes) {
			c.cells[0].Attr = int32(len(c.doms))
		}},
		{"unsorted tuple", "not strictly sorted", func(c *Codes) {
			c.cells[0], c.cells[1] = c.cells[1], c.cells[0]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			codes := cloneCodes(g.Codes())
			c.doctor(codes)
			var buf bytes.Buffer
			if err := g.writeSnapshot(&buf, nil, codes); err != nil {
				t.Fatal(err)
			}
			_, err := ReadSnapshot(&buf)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("canonical column rejected: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("accepted")
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("rejected for %q, want %q", err, c.want)
			}
		})
	}
}

// TestSnapshotStoresValuesAsRead: a cell with payload its kind ignores
// is stored canonical — a Number's bits, a String's Str — even where
// that makes it equal to another cell of its attribute; the file is
// canonical, so it re-writes byte-identically.
func TestSnapshotStoresValuesAsRead(t *testing.T) {
	b := NewBuilder()
	for _, v := range []Value{
		{Kind: Number, Num: 5, Str: "five"}, N(5), {Kind: String, Num: 2, Str: "x"}, S("x"), S("q"),
	} {
		b.AddNode("P", map[string]Value{"v": v})
	}
	first := snapBytes(t, MustBuild(b), nil)
	snap, err := ReadSnapshot(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range []Value{N(5), N(5), S("x"), S("x"), S("q")} {
		if got := snap.G.Value(snap.G.Tuple(NodeID(v))[0]); got != want {
			t.Errorf("node %d reads %#v, want %#v", v, got, want)
		}
	}
	if d := snap.G.ActiveDomain("v"); len(d.Values) != 3 {
		t.Errorf("domain %v, want 5 q x", d.Values)
	}
	if again := snapBytes(t, snap.G, nil); !bytes.Equal(first, again) {
		t.Fatal("re-written snapshot differs")
	}
}
