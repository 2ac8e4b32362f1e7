package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
)

// Binary snapshot format (see DESIGN.md §15 for the field-width table).
//
// Everything is little-endian. The file is a 56-byte checksummed header
// followed by body sections in fixed order, closed by a body checksum:
//
//	header   magic[8] version:u32 flags:u32 nodes:u64 edges:u64
//	         attrEntries:u64 auxLen:u64 headerSum:u64(FNV-64a of the
//	         preceding 48 bytes)
//	body     labels interner · attrs interner · domains · node labels ·
//	         attr offsets · code cells · out offsets · out edges ·
//	         in offsets · in edges · aux bytes
//	footer   bodySum:u64 (FNV-64a of every body byte)
//
// The attribute column travels in coded form (adom.go): the domains, in
// attribute-id order, each as numbers:u32 strings:u32, the numbers'
// float64 bits and the length-prefixed strings, in domain order; then
// one attr:u32 code:u32 cell per tuple entry. The reader keeps them as
// the graph's Codes, as read, and refuses what Builder.Build refuses or
// would store otherwise: a NaN, ±Inf, a -0, an attribute name holding "=".
//
// The writer iterates arenas in index order, interner tables in id
// order and domains in code order, so the encoding of a given graph is a
// pure function of its contents: write → read → write is byte-identical
// (pinned by test). The reader accepts only that canonical form.
// The aux section is opaque to this package; callers use it to embed a
// serialized distance index (see internal/distindex) so a server
// cold-start can skip index construction.
const (
	// SnapshotVersion is the current format version. Version history:
	//   1 — initial layout: a string-value table, and 13-byte attr
	//       cells (attr:u32 kind:u8 payload:u64).
	//   2 — the attribute column in coded form: domains and 8-byte
	//       code cells replace the string table and the 13-byte cells.
	SnapshotVersion = 2

	snapshotMagic = "WQESNAP\x00"
	snapHeaderLen = 56

	// snapFlagAux marks a non-empty aux section.
	snapFlagAux uint32 = 1 << 0
)

// maxSnapshotChunk bounds every single allocation made while reading a
// snapshot: big arrays grow by appending fixed-size chunks, so a
// corrupt or hostile header claiming absurd element counts runs out of
// input (and fails loudly) long before it can exhaust memory.
const maxSnapshotChunk = 4 << 20 // bytes

// SniffSnapshot reports whether the byte prefix looks like a binary
// snapshot (used by the CLIs to pick a loader without a format flag).
// len(prefix) may be shorter than the magic; short prefixes sniff false.
func SniffSnapshot(prefix []byte) bool {
	return len(prefix) >= len(snapshotMagic) && string(prefix[:len(snapshotMagic)]) == snapshotMagic
}

// Snapshot is the result of reading a snapshot file.
type Snapshot struct {
	G       *Graph
	Aux     []byte // opaque payload stored by the writer; nil if absent
	Version uint32 // format version of the file read
}

// WriteSnapshot writes the graph (and an optional opaque aux payload)
// in the binary snapshot format. The output is deterministic: the same
// graph contents always produce the same bytes.
func (g *Graph) WriteSnapshot(w io.Writer, aux []byte) error {
	return g.writeSnapshot(w, aux, g.codes)
}

// writeSnapshot writes g with codes as its code column.
func (g *Graph) writeSnapshot(w io.Writer, aux []byte, codes *Codes) error {
	n := g.NumNodes()

	var hdr [snapHeaderLen]byte
	copy(hdr[0:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], SnapshotVersion)
	var flags uint32
	if len(aux) > 0 {
		flags |= snapFlagAux
	}
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(codes.cells)))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(len(aux)))
	hh := fnv.New64a()
	hashBytes(hh, hdr[:48])
	binary.LittleEndian.PutUint64(hdr[48:56], hh.Sum64())

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("graph: snapshot write: %w", err)
	}

	sw := &snapWriter{bw: bw, h: fnv.New64a()}
	sw.interner(g.Labels)
	sw.interner(g.Attrs)

	for a := int32(0); a < int32(g.Attrs.Len()); a++ {
		var vals []Value
		numbers := 0
		if d := codes.Domain(a); d != nil {
			vals, numbers = d.Values, d.Numbers
		}
		sw.u32(uint32(numbers))
		sw.u32(uint32(len(vals) - numbers))
		for _, v := range vals[:numbers] {
			sw.u64(math.Float64bits(v.Num))
		}
		for _, v := range vals[numbers:] {
			sw.str(v.Str)
		}
	}
	for _, l := range g.labels {
		sw.u32(uint32(l))
	}
	for _, o := range codes.off {
		sw.u32(uint32(o))
	}
	for _, c := range codes.cells {
		sw.u64(uint64(uint32(c.Attr)) | uint64(uint32(c.Code))<<32)
	}
	for _, o := range g.outOff {
		sw.u32(uint32(o))
	}
	for _, e := range g.outEdges {
		sw.u32(uint32(e.To))
		sw.u32(uint32(e.Label))
	}
	for _, o := range g.inOff {
		sw.u32(uint32(o))
	}
	for _, e := range g.inEdges {
		sw.u32(uint32(e.To))
		sw.u32(uint32(e.Label))
	}
	sw.bytes(aux)
	if sw.err != nil {
		return fmt.Errorf("graph: snapshot write: %w", sw.err)
	}

	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], sw.h.Sum64())
	if _, err := bw.Write(sum[:]); err != nil {
		return fmt.Errorf("graph: snapshot write: %w", err)
	}
	return bw.Flush()
}

// ReadSnapshot reads a snapshot written by WriteSnapshot. It rejects
// foreign files (bad magic), version skew, truncation, and corruption
// (checksums, plus full structural validation of offsets and ids) with
// descriptive errors; a successfully read graph is immediately usable
// with no further construction work.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	// 64 KiB, the size graphload.Read wraps its reader in: NewReaderSize
	// then returns that reader as it is.
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: snapshot: short header: %w", err)
	}
	if !SniffSnapshot(hdr[:]) {
		return nil, fmt.Errorf("graph: snapshot: bad magic — not a wqe snapshot file")
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != SnapshotVersion {
		// Version check comes before the header checksum so a future
		// format (which may checksum differently) gets the clear error.
		return nil, fmt.Errorf("graph: snapshot: unsupported format version %d (this build reads version %d; "+
			"re-save the graph from its JSON with `wqe -graph g.json -save-snapshot g.snap`)",
			version, SnapshotVersion)
	}
	hh := fnv.New64a()
	hashBytes(hh, hdr[:48])
	if got := binary.LittleEndian.Uint64(hdr[48:56]); got != hh.Sum64() {
		return nil, fmt.Errorf("graph: snapshot: header checksum mismatch (corrupt file)")
	}
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	if flags&^snapFlagAux != 0 {
		return nil, fmt.Errorf("graph: snapshot: unknown flags %#x", flags)
	}
	nodes64 := binary.LittleEndian.Uint64(hdr[16:24])
	edges64 := binary.LittleEndian.Uint64(hdr[24:32])
	attrs64 := binary.LittleEndian.Uint64(hdr[32:40])
	aux64 := binary.LittleEndian.Uint64(hdr[40:48])
	const maxCount = math.MaxInt32 - 1
	if nodes64 > maxCount || edges64 > maxCount || attrs64 > maxCount || aux64 > maxCount {
		return nil, fmt.Errorf("graph: snapshot: element counts exceed int32 limits (nodes=%d edges=%d attrs=%d aux=%d)",
			nodes64, edges64, attrs64, aux64)
	}
	if flags&snapFlagAux == 0 && aux64 != 0 {
		return nil, fmt.Errorf("graph: snapshot: aux length %d without aux flag", aux64)
	}
	n, edges, attrEntries, auxLen := int(nodes64), int(edges64), int(attrs64), int(aux64)

	sr := &snapReader{br: br, h: fnv.New64a()}
	labelsIn, err := sr.interner("labels")
	if err != nil {
		return nil, err
	}
	attrsIn, err := sr.interner("attrs")
	if err != nil {
		return nil, err
	}
	if err := checkAttrNames(attrsIn); err != nil {
		return nil, fmt.Errorf("graph: snapshot: %w", err)
	}

	codes, err := sr.domains(attrsIn, attrEntries)
	if err != nil {
		return nil, err
	}

	labels := sr.int32s(n)
	for _, l := range labels {
		if l < 0 || int(l) >= labelsIn.Len() {
			return nil, fmt.Errorf("graph: snapshot: node label id %d out of range", l)
		}
	}
	attrOff := sr.int32s(n + 1)
	if err := validateOffsets("attr", attrOff, n, attrEntries); err != nil {
		return nil, errOr(sr.err, err)
	}
	if err := sr.cells(codes, attrEntries); err != nil {
		return nil, err
	}
	codes.off = attrOff
	// Tuples must be strictly sorted by attr id: AttrByID stops at the
	// first id not below the one it looks for, and NodeCheck.literals
	// meets its sorted literals in one forward scan.
	for v := 0; v+1 <= n && sr.err == nil; v++ {
		seg := codes.cells[attrOff[v]:attrOff[v+1]]
		for i := 1; i < len(seg); i++ {
			if seg[i-1].Attr >= seg[i].Attr {
				return nil, fmt.Errorf("graph: snapshot: tuple of node %d not strictly sorted by attr id", v)
			}
		}
	}
	if sr.err == nil {
		codes.buildPostings()
	}

	outOff := sr.int32s(n + 1)
	if err := validateOffsets("out", outOff, n, edges); err != nil {
		return nil, errOr(sr.err, err)
	}
	outEdges, err := sr.edges(edges, n, labelsIn.Len())
	if err != nil {
		return nil, err
	}
	inOff := sr.int32s(n + 1)
	if err := validateOffsets("in", inOff, n, edges); err != nil {
		return nil, errOr(sr.err, err)
	}
	inEdges, err := sr.edges(edges, n, labelsIn.Len())
	if err != nil {
		return nil, err
	}

	var aux []byte
	if auxLen > 0 {
		// Read straight into the destination (no scratch round-trip);
		// geometric growth keeps the hostile-count memory bound.
		aux = make([]byte, 0, minInt(auxLen, maxSnapshotChunk))
		for len(aux) < auxLen && sr.err == nil {
			c := minInt(auxLen-len(aux), maxSnapshotChunk)
			base := len(aux)
			aux = grown(aux, c, auxLen)
			if _, err := io.ReadFull(br, aux[base:]); err != nil {
				sr.err = err
				break
			}
			hashBytes(sr.h, aux[base:])
		}
	}
	if sr.err != nil {
		return nil, fmt.Errorf("graph: snapshot: truncated body: %w", sr.err)
	}

	var sum [8]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("graph: snapshot: missing body checksum: %w", err)
	}
	if binary.LittleEndian.Uint64(sum[:]) != sr.h.Sum64() {
		return nil, fmt.Errorf("graph: snapshot: body checksum mismatch (corrupt file)")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("graph: snapshot: trailing data after checksum")
	}

	g := &Graph{
		Labels:   labelsIn,
		Attrs:    attrsIn,
		labels:   labels,
		codes:    codes,
		outOff:   outOff,
		outEdges: outEdges,
		inOff:    inOff,
		inEdges:  inEdges,
		uid:      graphUID.Add(1),
	}
	g.buildByLabel()
	return &Snapshot{G: g, Aux: aux, Version: version}, nil
}

// snapWriter hashes everything it writes; errors are sticky.
type snapWriter struct {
	bw  *bufio.Writer
	h   hash.Hash64
	err error
	buf [8]byte
}

func (sw *snapWriter) bytes(p []byte) {
	if sw.err != nil {
		return
	}
	if _, err := sw.bw.Write(p); err != nil {
		sw.err = err
		return
	}
	hashBytes(sw.h, p)
}

func (sw *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(sw.buf[:4], v)
	sw.bytes(sw.buf[:4])
}

func (sw *snapWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(sw.buf[:8], v)
	sw.bytes(sw.buf[:8])
}

func (sw *snapWriter) str(s string) {
	sw.u32(uint32(len(s)))
	if sw.err == nil {
		if _, err := sw.bw.WriteString(s); err != nil {
			sw.err = err
			return
		}
		if _, err := io.WriteString(sw.h, s); err != nil {
			sw.err = err
		}
	}
}

// interner writes one interner table: count, then every name in id
// order (id 0 is always the empty wildcard).
func (sw *snapWriter) interner(in *Names) {
	sw.u32(uint32(in.Len()))
	for i := int32(0); i < int32(in.Len()); i++ {
		sw.str(in.Name(i))
	}
}

// snapReader hashes everything it reads; errors are sticky.
type snapReader struct {
	br      *bufio.Reader
	h       hash.Hash64
	err     error
	scratch []byte
	buf     [8]byte
}

// take reads n body bytes into the shared scratch buffer. The returned
// slice is valid until the next read.
func (sr *snapReader) take(n int) []byte {
	if sr.err != nil {
		return nil
	}
	if cap(sr.scratch) < n {
		sr.scratch = make([]byte, n)
	}
	p := sr.scratch[:n]
	if _, err := io.ReadFull(sr.br, p); err != nil {
		sr.err = err
		return nil
	}
	hashBytes(sr.h, p)
	return p
}

func (sr *snapReader) u32() uint32 {
	if _, err := io.ReadFull(sr.br, sr.buf[:4]); err != nil {
		if sr.err == nil {
			sr.err = err
		}
		return 0
	}
	hashBytes(sr.h, sr.buf[:4])
	return binary.LittleEndian.Uint32(sr.buf[:4])
}

// stringTable reads count length-prefixed strings. It parses whole
// batches out of the buffered reader via Peek/Discard — two tiny reads
// per string would dominate at million-entry tables — hashing exactly
// the bytes it consumes, in stream order, so the body checksum is
// unchanged. A string that doesn't fit the peek window (or a short
// stream) falls back to the plain one-string path and its errors.
func (sr *snapReader) stringTable(count int) []string {
	out := make([]string, 0, minInt(count, maxSnapshotChunk/16))
	for len(out) < count && sr.err == nil {
		//lint:ignore errdrop a short peek (EOF) only shrinks the batch; real truncation is reported by the fallback path below
		p, _ := sr.br.Peek(1 << 16)
		pos := 0
		parsed := false
		for len(out) < count {
			if pos+4 > len(p) {
				break
			}
			n := int(binary.LittleEndian.Uint32(p[pos:]))
			if n > maxSnapshotChunk {
				sr.err = fmt.Errorf("string of %d bytes exceeds %d-byte limit", n, maxSnapshotChunk)
				break
			}
			if pos+4+n > len(p) {
				break
			}
			out = append(out, string(p[pos+4:pos+4+n]))
			pos += 4 + n
			parsed = true
		}
		if pos > 0 {
			hashBytes(sr.h, p[:pos])
			if _, err := sr.br.Discard(pos); err != nil {
				sr.err = err // unreachable: pos <= buffered bytes
			}
		}
		if sr.err != nil {
			break
		}
		if !parsed && len(out) < count {
			out = append(out, sr.str())
		}
	}
	return out
}

func (sr *snapReader) str() string {
	n := int(sr.u32())
	if n > maxSnapshotChunk {
		if sr.err == nil {
			sr.err = fmt.Errorf("string of %d bytes exceeds %d-byte limit", n, maxSnapshotChunk)
		}
		return ""
	}
	return string(sr.take(n))
}

// int32s reads count little-endian uint32s as int32s, decoding chunk
// at a time into pre-grown slots. Growth is geometric and only follows
// successful reads, so hostile counts fail on EOF having allocated at
// most ~2x the bytes actually present.
func (sr *snapReader) int32s(count int) []int32 {
	out := make([]int32, 0, minInt(count, maxSnapshotChunk/4))
	for len(out) < count && sr.err == nil {
		c := minInt(count-len(out), maxSnapshotChunk/4)
		p := sr.take(c * 4)
		if sr.err != nil {
			break
		}
		base := len(out)
		out = grown(out, c, count)
		for i := 0; i < c; i++ {
			out[base+i] = int32(binary.LittleEndian.Uint32(p[i*4:]))
		}
	}
	return out
}

// uint64s is int32s for 8-byte words.
func (sr *snapReader) uint64s(count int) []uint64 {
	out := make([]uint64, 0, minInt(count, maxSnapshotChunk/8))
	for len(out) < count && sr.err == nil {
		c := minInt(count-len(out), maxSnapshotChunk/8)
		p := sr.take(c * 8)
		if sr.err != nil {
			break
		}
		base := len(out)
		out = grown(out, c, count)
		for i := 0; i < c; i++ {
			out[base+i] = binary.LittleEndian.Uint64(p[i*8:])
		}
	}
	return out
}

// domains reads the domain table into a Codes that lacks only its cells
// and offsets. Each attribute's values must be canonical as the writer
// writes them — no NaN, no -0 — and ascend strictly by Compare, and all
// of them together may not outnumber the cells, each of which uses one.
// Numbers, NumMin and NumMax are recomputed, never read.
func (sr *snapReader) domains(attrs *Names, cells int) (*Codes, error) {
	nAttrs := attrs.Len()
	c := &Codes{
		base: make([]int32, nAttrs+1),
		doms: make([]*Domain, nAttrs),
	}
	for a := 0; a < nAttrs; a++ {
		numbers, strs := int(sr.u32()), int(sr.u32())
		if sr.err != nil {
			break
		}
		size := int(c.base[a]) + numbers + strs
		if size > cells {
			return nil, fmt.Errorf("graph: snapshot: domains hold more values than the %d cells", cells)
		}
		c.base[a+1] = int32(size)
		nums, ss := sr.uint64s(numbers), sr.stringTable(strs)
		if sr.err != nil || numbers+strs == 0 {
			continue
		}
		vals := make([]Value, 0, numbers+strs)
		for _, bits := range nums {
			vals = append(vals, N(math.Float64frombits(bits)))
		}
		for _, str := range ss {
			vals = append(vals, S(str))
		}
		for i, v := range vals {
			if _, err := v.Canonical(); err != nil || v.Num == 0 && math.Signbit(v.Num) {
				return nil, fmt.Errorf("graph: snapshot: %v in the domain of attribute %d", v, a)
			}
			if i > 0 && vals[i-1].Compare(v) >= 0 {
				return nil, fmt.Errorf("graph: snapshot: domain of attribute %d not strictly ascending at value %d", a, i)
			}
		}
		d := &Domain{Attr: attrs.Name(int32(a)), Values: vals}
		d.summarize()
		c.doms[a] = d
	}
	if sr.err != nil {
		return nil, fmt.Errorf("graph: snapshot: truncated domains: %w", sr.err)
	}
	return c, nil
}

// cells reads count (attr, code) cells into c. A code must lie in its
// attribute's range, and every code must be some cell's.
func (sr *snapReader) cells(c *Codes, count int) error {
	used := make([]bool, c.Len())
	distinct := 0
	c.cells = make([]AttrCode, 0, minInt(count, maxSnapshotChunk/8))
	for len(c.cells) < count && sr.err == nil {
		k := minInt(count-len(c.cells), maxSnapshotChunk/8)
		p := sr.take(k * 8)
		if sr.err != nil {
			break
		}
		base := len(c.cells)
		c.cells = grown(c.cells, k, count)
		for i := 0; i < k; i++ {
			pair := binary.LittleEndian.Uint64(p[i*8:])
			attr, code := uint32(pair), uint32(pair>>32)
			if attr >= uint32(len(c.doms)) {
				return fmt.Errorf("graph: snapshot: attr id %d out of range", int32(attr))
			}
			// One unsigned compare: a code below lo wraps to a huge offset.
			lo, hi := uint32(c.base[attr]), uint32(c.base[attr+1])
			if code-lo >= hi-lo {
				return fmt.Errorf("graph: snapshot: code %d outside attribute %d's range [%d, %d)", int32(code), attr, lo, hi)
			}
			if !used[code] {
				used[code] = true
				distinct++
			}
			c.cells[base+i] = AttrCode{Attr: int32(attr), Code: int32(code)}
		}
	}
	if sr.err != nil {
		return fmt.Errorf("graph: snapshot: truncated body: %w", sr.err)
	}
	if distinct != len(used) {
		return fmt.Errorf("graph: snapshot: %d domain values no cell uses", len(used)-distinct)
	}
	return nil
}

// edges reads count (to, label) pairs, validating ids against the node
// count and label-table size.
func (sr *snapReader) edges(count, numNodes, numLabels int) ([]Edge, error) {
	out := make([]Edge, 0, minInt(count, maxSnapshotChunk/8))
	for len(out) < count && sr.err == nil {
		c := minInt(count-len(out), maxSnapshotChunk/8)
		p := sr.take(c * 8)
		if sr.err != nil {
			break
		}
		base := len(out)
		out = grown(out, c, count)
		for i := 0; i < c; i++ {
			// One u64 load per pair; the unsigned compares also catch
			// values whose sign bit is set (numNodes/numLabels are
			// int32-bounded, so any id ≥ 1<<31 reads as huge here).
			pair := binary.LittleEndian.Uint64(p[i*8:])
			to, label := uint32(pair), uint32(pair>>32)
			if to >= uint32(numNodes) {
				return nil, fmt.Errorf("graph: snapshot: edge endpoint %d out of range", int32(to))
			}
			if label >= uint32(numLabels) {
				return nil, fmt.Errorf("graph: snapshot: edge label id %d out of range", int32(label))
			}
			out[base+i] = Edge{To: NodeID(to), Label: int32(label)}
		}
	}
	if sr.err != nil {
		return nil, fmt.Errorf("graph: snapshot: truncated body: %w", sr.err)
	}
	return out, nil
}

// grown extends s by c slots (the next chunk's worth), growing capacity
// geometrically toward count. Callers grow only after a chunk has been
// read successfully, so a hostile count claiming far more elements than
// the file holds hits EOF after allocating at most ~2x the real data.
func grown[T any](s []T, c, count int) []T {
	need := len(s) + c
	if need <= cap(s) {
		return s[:need]
	}
	newCap := 2 * cap(s)
	if newCap < need {
		newCap = need
	}
	if newCap > count {
		newCap = count
	}
	g := make([]T, need, newCap)
	copy(g, s)
	return g
}

// interner reads one interner table and reconstructs its names.
func (sr *snapReader) interner(what string) (*Names, error) {
	count := int(sr.u32())
	if sr.err != nil {
		return nil, fmt.Errorf("graph: snapshot: truncated %s interner: %w", what, sr.err)
	}
	if count < 1 || count > maxCountInterner {
		return nil, fmt.Errorf("graph: snapshot: %s interner has implausible size %d", what, count)
	}
	first := sr.str()
	if sr.err != nil {
		return nil, fmt.Errorf("graph: snapshot: truncated %s interner: %w", what, sr.err)
	}
	if first != "" {
		return nil, fmt.Errorf("graph: snapshot: %s interner entry 0 must be the empty wildcard, got %q", what, first)
	}
	in := NewInterner()
	for i := 1; i < count; i++ {
		name := sr.str()
		if sr.err != nil {
			return nil, fmt.Errorf("graph: snapshot: truncated %s interner: %w", what, sr.err)
		}
		if id := in.Intern(name); id != int32(i) {
			return nil, fmt.Errorf("graph: snapshot: duplicate %s interner entry %q", what, name)
		}
	}
	return &in.Names, nil
}

// maxCountInterner caps interner tables: label/attr name universes are
// tiny next to node counts; 1<<26 entries is far beyond any real graph
// and small enough that a hostile count fails fast.
const maxCountInterner = 1 << 26

func validateOffsets(what string, off []int32, n, total int) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: snapshot: %s offsets truncated", what)
	}
	if off[0] != 0 || off[n] != int32(total) {
		return fmt.Errorf("graph: snapshot: %s offsets do not span the arena (first=%d last=%d want 0..%d)",
			what, off[0], off[n], total)
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("graph: snapshot: %s offsets not monotonic at %d", what, i)
		}
	}
	return nil
}

// hashBytes feeds p to h.
//
// invariant: hash.Hash documents that Write never returns an error, so
// the discarded result cannot carry one; this wrapper keeps that
// contract explicit in one place.
func hashBytes(h hash.Hash64, p []byte) {
	//lint:ignore errdrop hash.Hash documents that Write never returns an error
	_, _ = h.Write(p)
}

func errOr(a, b error) error {
	if a != nil {
		return fmt.Errorf("graph: snapshot: truncated body: %w", a)
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
