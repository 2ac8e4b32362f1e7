package distindex

import (
	"encoding/binary"
	"fmt"
	"math"

	"wqe/internal/graph"
)

// PLL label serialization. The blob rides in the opaque aux section of
// a graph snapshot (internal/graph/snapshot.go), so a server cold-start
// restores the index instead of rebuilding it. Layout (little-endian):
//
//	magic[8] "WQEPLL\x00\x00" · version:u32 · n:u64 ·
//	rank:   n × u32
//	inOff:  (n+1) × u32, then inOff[n] entries of (rank:u32, d:u32)
//	outOff: (n+1) × u32, then outOff[n] entries of (rank:u32, d:u32)
//
// The label lists are stored verbatim (rank + distance, in list order)
// and the rank permutation pins landmark order, so the restored index
// is bit-identical to the one marshaled: every Dist/Within merge walks
// exactly the same entries. Integrity of the bytes themselves is the
// enclosing snapshot's body checksum; Unmarshal still validates all
// structure (permutation, offsets, rank ordering) so a blob from a
// foreign graph fails loudly instead of answering wrong distances.
const (
	pllMagic   = "WQEPLL\x00\x00"
	pllVersion = 1
)

// Marshal serializes the index labels. The output is deterministic: the
// same index always produces the same bytes.
func (p *PLL) Marshal() []byte {
	n := len(p.rank)
	size := len(pllMagic) + 4 + 8 + 4*n + 2*(4*(n+1)) + 8*p.LabelSize()
	buf := make([]byte, 0, size)
	buf = append(buf, pllMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, pllVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	for _, r := range p.rank {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	buf = appendSide(buf, &p.in)
	buf = appendSide(buf, &p.out)
	return buf
}

func appendSide(buf []byte, side *labelSide) []byte {
	for _, o := range side.off {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
	}
	for _, le := range side.arena {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(le.rank))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(le.d))
	}
	return buf
}

// UnmarshalPLL reconstructs a marshaled index over g. It fails if the
// blob is malformed or was built over a graph of a different size. The
// blob is the index's own layout, so each side is one offsets array and
// one arena decoded in a single pass.
func UnmarshalPLL(g *graph.Graph, data []byte) (*PLL, error) {
	c := &byteCursor{b: data}
	if string(c.take(len(pllMagic))) != pllMagic {
		return nil, fmt.Errorf("distindex: pll blob: bad magic")
	}
	if v := c.u32(); v != pllVersion {
		return nil, fmt.Errorf("distindex: pll blob: unsupported version %d (this build reads version %d)", v, pllVersion)
	}
	n64 := c.u64()
	if c.err != nil {
		return nil, fmt.Errorf("distindex: pll blob: truncated header")
	}
	if n64 != uint64(g.NumNodes()) {
		return nil, fmt.Errorf("distindex: pll blob: built over %d nodes, graph has %d", n64, g.NumNodes())
	}
	n := int(n64)

	rank := c.int32s(n)
	if c.err != nil {
		return nil, fmt.Errorf("distindex: pll blob: truncated rank array")
	}
	seen := make([]bool, n)
	for v, r := range rank {
		if r < 0 || int(r) >= n || seen[r] {
			return nil, fmt.Errorf("distindex: pll blob: rank array is not a permutation (node %d, rank %d)", v, r)
		}
		seen[r] = true
	}

	p := &PLL{rank: rank}
	var err error
	if p.in, err = readSide(c, n, "in"); err != nil {
		return nil, err
	}
	if p.out, err = readSide(c, n, "out"); err != nil {
		return nil, err
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("distindex: pll blob: %d trailing bytes", len(c.b)-c.off)
	}
	return p, nil
}

func readSide(c *byteCursor, n int, what string) (labelSide, error) {
	off := c.int32s(n + 1)
	if c.err != nil {
		return labelSide{}, fmt.Errorf("distindex: pll blob: truncated %s offsets", what)
	}
	if off[0] != 0 {
		return labelSide{}, fmt.Errorf("distindex: pll blob: %s offsets must start at 0", what)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return labelSide{}, fmt.Errorf("distindex: pll blob: %s offsets not monotonic at %d", what, i)
		}
	}
	total := int(off[n])
	p := c.take(8 * total)
	if c.err != nil {
		return labelSide{}, fmt.Errorf("distindex: pll blob: truncated %s entries", what)
	}
	arena := make([]labelEntry, total)
	for v := 0; v < n; v++ {
		// Dist/Within merge-intersect; the lists must be strictly
		// rank-sorted exactly as construction leaves them.
		prev := int64(-1)
		for i := int(off[v]); i < int(off[v+1]); i++ {
			pair := binary.LittleEndian.Uint64(p[8*i:])
			r, d := uint32(pair), uint32(pair>>32)
			if r >= uint32(n) || d > math.MaxInt32 {
				return labelSide{}, fmt.Errorf("distindex: pll blob: %s entry %d out of range (rank=%d d=%d)", what, i, int32(r), int32(d))
			}
			if int64(r) <= prev {
				return labelSide{}, fmt.Errorf("distindex: pll blob: %s labels of node %d not strictly rank-sorted", what, v)
			}
			prev = int64(r)
			arena[i] = labelEntry{rank: int32(r), d: int32(d)}
		}
	}
	return labelSide{off: off, arena: arena}, nil
}

// byteCursor walks an in-memory blob with sticky bounds-check errors.
// Allocation sizes are always derived from bytes actually present, so a
// hostile header cannot force a large allocation.
type byteCursor struct {
	b   []byte
	off int
	err error
}

func (c *byteCursor) take(n int) []byte {
	if c.err != nil || c.off+n > len(c.b) || n < 0 {
		c.err = fmt.Errorf("truncated at byte %d", c.off)
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

func (c *byteCursor) u32() uint32 {
	p := c.take(4)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (c *byteCursor) u64() uint64 {
	p := c.take(8)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (c *byteCursor) int32s(count int) []int32 {
	p := c.take(4 * count)
	if c.err != nil {
		return nil
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return out
}
