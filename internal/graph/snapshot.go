package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
)

// A checkpoint's snapshot holds a sealed graph's source columns — ρ, λ,
// ν and the keys, as columns.go lays them out — and nothing derived from
// them. Recovery validates every column once and then runs the same
// finish step as Build, so the CSR, its runs, the label indexes, the
// statistics and the key tables are recomputed, never trusted from disk.
// The layout is in wal.go's file-format comment.

// ErrSnapshotCorrupt reports a snapshot file that fails its checksums or
// its validation: recovery refuses it rather than serve a graph it
// cannot vouch for.
var ErrSnapshotCorrupt = errors.New("graph: snapshot corrupt")

const (
	snapMagicJSON = "PASNAP\x01\x00" // version 1: WriteJSON bytes follow the header
	snapMagic     = "PASNAP\x02\x00" // version 2: checksummed column sections follow
	snapSecHdrLen = 12               // u64 payload length, u32 CRC-32C
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeSnapshot returns the version-2 snapshot of the sealed graph g at
// epoch.
func encodeSnapshot(epoch uint64, g *Graph) ([]byte, error) {
	if g.ov != nil {
		return nil, fmt.Errorf("graph: snapshot of a delta view; compact it first")
	}
	n, m := len(g.nodeLabel), len(g.edgeSrc)
	size := walHeaderLen + 16 + 4*(2*n+4*m+2) + len(g.nodeKeys.text) + len(g.edgeKeys.text) +
		len(g.nodeProps.text) + len(g.edgeProps.text) + 9*(n*len(g.nodeProps.cols)+m*len(g.edgeProps.cols)) + 4096
	b := make([]byte, walHeaderLen, size)
	copy(b, snapMagic)
	binary.LittleEndian.PutUint64(b[8:], epoch)

	var sec int
	sec, b = openSection(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(m))
	b = closeSection(b, sec)
	b = appendStringsSection(b, g.nodeLabels)
	b = appendU32Section(b, g.nodeLabel)
	b = appendStringsSection(b, g.symbols)
	b = appendU32Section(b, g.edgeSym)
	b = appendU32Section(b, g.edgeSrc)
	b = appendU32Section(b, g.edgeDst)
	for _, kc := range []*keyColumn{&g.nodeKeys, &g.edgeKeys} {
		b = appendTextSection(b, kc.text)
		b = appendU32Section(b, kc.off)
	}
	for _, pc := range []*propColumns{&g.nodeProps, &g.edgeProps} {
		b = appendTextSection(b, pc.text)
		names := make([]string, 0, len(pc.cols))
		for name := range pc.cols {
			names = append(names, name)
		}
		sort.Strings(names)
		b = appendStringsSection(b, names)
		for _, name := range names {
			col := pc.cols[name]
			sec, b = openSection(b)
			for _, k := range col.kinds {
				b = append(b, byte(k))
			}
			b = closeSection(b, sec)
			b = appendU64Section(b, col.bits)
		}
	}
	return b, nil
}

// openSection reserves a section header at the end of b and returns its
// offset.
func openSection(b []byte) (int, []byte) {
	return len(b), append(b, make([]byte, snapSecHdrLen)...)
}

// closeSection fills in the header at sec for the payload after it.
func closeSection(b []byte, sec int) []byte {
	payload := b[sec+snapSecHdrLen:]
	binary.LittleEndian.PutUint64(b[sec:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(b[sec+8:], crc32.Checksum(payload, castagnoli))
	return b
}

func appendTextSection(b []byte, text string) []byte {
	sec, b := openSection(b)
	return closeSection(append(b, text...), sec)
}

// appendStringsSection writes a u32 count, then each string as a u32
// length and its bytes.
func appendStringsSection(b []byte, ss []string) []byte {
	sec, b := openSection(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return closeSection(b, sec)
}

func appendU32Section[T ~uint32 | ~int32](b []byte, xs []T) []byte {
	sec, b := openSection(b)
	at := len(b)
	b = slices.Grow(b, 4*len(xs))[:at+4*len(xs)]
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[at+4*i:], uint32(x))
	}
	return closeSection(b, sec)
}

func appendU64Section(b []byte, xs []uint64) []byte {
	sec, b := openSection(b)
	at := len(b)
	b = slices.Grow(b, 8*len(xs))[:at+8*len(xs)]
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[at+8*i:], x)
	}
	return closeSection(b, sec)
}

// decodeSnapshot reads a snapshot written by encodeSnapshot, or a
// version-1 snapshot through ReadJSON, and returns the graph and its
// epoch. Every failure wraps ErrSnapshotCorrupt.
func decodeSnapshot(data []byte) (*Graph, uint64, error) {
	if len(data) < walHeaderLen {
		return nil, 0, fmt.Errorf("%w: %d bytes, shorter than the header", ErrSnapshotCorrupt, len(data))
	}
	epoch := binary.LittleEndian.Uint64(data[8:])
	switch string(data[:8]) {
	case snapMagic:
		g, err := decodeColumns(data[walHeaderLen:])
		return g, epoch, err
	case snapMagicJSON:
		g, err := ReadJSON(bytes.NewReader(data[walHeaderLen:]))
		if err != nil {
			return nil, 0, fmt.Errorf("%w: version 1: %w", ErrSnapshotCorrupt, err)
		}
		return g, epoch, nil
	default:
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, data[:8])
	}
}

// snapReader walks a version-2 snapshot's sections. Its first failure
// sticks: later reads return empty values, so a decoder checks err once
// all sections are read, before it indexes anything.
type snapReader struct {
	rest []byte
	err  error
}

func (r *snapReader) fail(what, format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s: %s", ErrSnapshotCorrupt, what, fmt.Sprintf(format, args...))
	}
}

// section returns the next section's payload after checking its CRC and,
// when want is not negative, that it is want bytes long: a length read
// from the file is checked before anything is sized by it.
func (r *snapReader) section(what string, want int64) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.rest) < snapSecHdrLen {
		r.fail(what, "missing")
		return nil
	}
	n := binary.LittleEndian.Uint64(r.rest)
	sum := binary.LittleEndian.Uint32(r.rest[8:])
	if n > uint64(len(r.rest)-snapSecHdrLen) {
		r.fail(what, "%d bytes long, past the end of the file", n)
		return nil
	}
	p := r.rest[snapSecHdrLen : snapSecHdrLen+n]
	if crc32.Checksum(p, castagnoli) != sum {
		r.fail(what, "checksum mismatch")
		return nil
	}
	if want >= 0 && n != uint64(want) {
		r.fail(what, "%d bytes long, want %d", n, want)
		return nil
	}
	r.rest = r.rest[snapSecHdrLen+n:]
	return p
}

func (r *snapReader) text(what string) string {
	return string(r.section(what, -1))
}

func (r *snapReader) strings(what string) []string {
	p := r.section(what, -1)
	if r.err != nil {
		return nil
	}
	if len(p) < 4 {
		r.fail(what, "no count")
		return nil
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(count) > uint64(len(p)/4) {
		r.fail(what, "%d strings in %d bytes", count, len(p))
		return nil
	}
	out := make([]string, count)
	for i := range out {
		if len(p) < 4 || int64(binary.LittleEndian.Uint32(p)) > int64(len(p)-4) {
			r.fail(what, "string %d runs past the section", i)
			return nil
		}
		l := int(binary.LittleEndian.Uint32(p))
		out[i] = string(p[4 : 4+l])
		p = p[4+l:]
	}
	if len(p) != 0 {
		r.fail(what, "%d bytes after the last string", len(p))
		return nil
	}
	return out
}

func readU32s[T ~uint32 | ~int32](r *snapReader, what string, n int) []T {
	p := r.section(what, 4*int64(n))
	if r.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

func (r *snapReader) column(what string, n int) *valueColumn {
	kinds := r.section(what+" kinds", int64(n))
	bits := r.section(what+" bits", 8*int64(n))
	if r.err != nil {
		return nil
	}
	col := &valueColumn{kinds: make([]ValueKind, n), bits: make([]uint64, n)}
	for i := range col.kinds {
		col.kinds[i] = ValueKind(kinds[i])
		col.bits[i] = binary.LittleEndian.Uint64(bits[8*i:])
	}
	return col
}

func (r *snapReader) props(kind string, n int) propColumns {
	pc := propColumns{text: r.text(kind + " property text")}
	names := r.strings(kind + " property names")
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			r.fail(kind+" property names", "%q does not follow %q in order", names[i], names[i-1])
		}
	}
	for _, name := range names {
		col := r.column(fmt.Sprintf("%s property %q", kind, name), n)
		if r.err != nil {
			break
		}
		if pc.cols == nil {
			pc.cols = make(map[string]*valueColumn, len(names))
		}
		pc.cols[name] = col
	}
	return pc
}

// decodeColumns reads the sections after a version-2 header, validates
// every column, and derives the rest of the graph from them.
func decodeColumns(data []byte) (*Graph, error) {
	r := &snapReader{rest: data}
	counts := r.section("counts", 16)
	if r.err != nil {
		return nil, r.err
	}
	n64, m64 := binary.LittleEndian.Uint64(counts), binary.LittleEndian.Uint64(counts[8:])
	if n64 > math.MaxInt32 || m64 > math.MaxInt32 {
		return nil, fmt.Errorf("%w: counts: %d nodes and %d edges", ErrSnapshotCorrupt, n64, m64)
	}
	n, m := int(n64), int(m64)
	g := &Graph{}
	g.nodeLabels = r.strings("node labels")
	g.nodeLabel = readU32s[uint32](r, "node label IDs", n)
	g.symbols = r.strings("edge symbols")
	g.edgeSym = readU32s[SymbolID](r, "edge symbol IDs", m)
	g.edgeSrc = readU32s[NodeID](r, "edge sources", m)
	g.edgeDst = readU32s[NodeID](r, "edge targets", m)
	g.nodeKeys.text = r.text("node keys")
	g.nodeKeys.off = readU32s[uint32](r, "node key offsets", n+1)
	g.edgeKeys.text = r.text("edge keys")
	g.edgeKeys.off = readU32s[uint32](r, "edge key offsets", m+1)
	g.nodeProps = r.props("node", n)
	g.edgeProps = r.props("edge", m)
	if r.err == nil && len(r.rest) != 0 {
		r.fail("end", "%d bytes after the last section", len(r.rest))
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := g.validateColumns(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	g.finish()
	return g, nil
}

// validateColumns checks what finish and every accessor assume of the
// source columns, whose lengths decodeColumns has already matched to the
// counts, and builds the key tables and clean bits on the way.
func (g *Graph) validateColumns() error {
	seen := make(map[string]bool, len(g.nodeLabels))
	for _, l := range g.nodeLabels {
		if seen[l] {
			return fmt.Errorf("node label %q listed twice", l)
		}
		seen[l] = true
	}
	for i, l := range g.nodeLabel {
		if int(l) >= len(g.nodeLabels) {
			return fmt.Errorf("node %d: label ID %d of %d", i, l, len(g.nodeLabels))
		}
	}
	for i := 1; i < len(g.symbols); i++ {
		if g.symbols[i-1] >= g.symbols[i] {
			return fmt.Errorf("edge symbol %q does not follow %q in order", g.symbols[i], g.symbols[i-1])
		}
	}
	n := NodeID(len(g.nodeLabel))
	for i, s := range g.edgeSym {
		if s < 0 || int(s) >= len(g.symbols) {
			return fmt.Errorf("edge %d: symbol %d of %d", i, s, len(g.symbols))
		}
		if g.edgeSrc[i] >= n || g.edgeDst[i] >= n {
			return fmt.Errorf("edge %d: endpoints %d→%d of %d nodes", i, g.edgeSrc[i], g.edgeDst[i], n)
		}
	}
	if err := g.nodeKeys.validate(); err != nil {
		return fmt.Errorf("node keys: %w", err)
	}
	if err := g.edgeKeys.validate(); err != nil {
		return fmt.Errorf("edge keys: %w", err)
	}
	// N ∩ E = ∅: probe the smaller kind's keys in the larger's table.
	small, large := &g.nodeKeys, &g.edgeKeys
	if len(small.off) > len(large.off) {
		small, large = large, small
	}
	for id := uint32(0); id < uint32(len(small.off)-1); id++ {
		if _, ok := large.find(small.key(id)); ok {
			return fmt.Errorf("key %q names both a node and an edge", small.key(id))
		}
	}
	if err := g.nodeProps.validate(); err != nil {
		return fmt.Errorf("node %w", err)
	}
	if err := g.edgeProps.validate(); err != nil {
		return fmt.Errorf("edge %w", err)
	}
	return nil
}

// validate checks that the column's offsets delimit one quoted key per
// ID and cover its text exactly, that no key repeats, and then sets the
// clean bits and the key table.
func (c *keyColumn) validate() error {
	if c.off[0] != 0 || int(c.off[len(c.off)-1]) != len(c.text) {
		return fmt.Errorf("offsets span %d..%d of %d bytes", c.off[0], c.off[len(c.off)-1], len(c.text))
	}
	n := len(c.off) - 1
	for id := 0; id < n; id++ {
		lo, hi := c.off[id], c.off[id+1]
		if hi < lo+2 || int(hi) > len(c.text) || c.text[lo] != '"' || c.text[hi-1] != '"' {
			return fmt.Errorf("key %d at %d..%d is not a quoted string", id, lo, hi)
		}
	}
	if first, dup, ok := c.buildIndex(); !ok {
		return fmt.Errorf("IDs %d and %d share key %q", first, dup, c.key(dup))
	}
	c.clean = make([]uint64, (n+63)/64)
	for id := uint32(0); id < uint32(n); id++ {
		if jsonUnchanged(c.key(id)) {
			c.clean[id/64] |= 1 << (id % 64)
		}
	}
	return nil
}

// validate checks every cell of every column: a known kind, no payload
// on an absent cell, a bool of 0 or 1, and a string inside the text.
func (pc *propColumns) validate() error {
	for name, col := range pc.cols {
		for i, k := range col.kinds {
			bits := col.bits[i]
			var ok bool
			switch k {
			case KindNull:
				ok = bits == 0
			case KindString:
				ok = bits>>32 <= bits&math.MaxUint32 && bits&math.MaxUint32 <= uint64(len(pc.text))
			case KindInt, KindFloat:
				ok = true
			case KindBool:
				ok = bits <= 1
			}
			if !ok {
				return fmt.Errorf("property %q: cell %d: kind %s with payload %#x", name, i, k, bits)
			}
		}
	}
	return nil
}
