package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Rebuild folds a delta view into a fresh sealed Graph, column by column,
// and returns the receiver when it is already sealed. The result is
// bit-for-bit what Build gives over the live nodes and edges in ID order:
//
//   - live IDs are renumbered by one prefix-sum pass over the tombstones;
//   - each kind's keys are copied, quoted, in blocks of live IDs, with
//     their clean bits, and indexed once (keyColumn.buildIndex);
//   - node labels are re-interned in first-seen order, and the live edge
//     labels sorted into symbols, so a batch's new edge label (the inline
//     reseal of Store.Apply) takes the same path as a compaction;
//   - the base's live property cells are copied column by column, their
//     strings laid out in (ID, sorted name) order, and the appended rows
//     written after them by the Builder's propBuilder.set, which lays
//     strings out in the same order; a column whose every holder died is
//     dropped;
//
// and finish derives the rest, as Build's does. It costs a pass over the
// columns plus finish, with no per-object map or hash beyond the key
// tables.
func (g *Graph) Rebuild() (*Graph, error) {
	ov := g.ov
	if ov == nil {
		return g, nil
	}
	base := ov.base
	nodeSpans := liveSpans(base.NumNodes(), ov.deadNodes.ids())
	edgeSpans := liveSpans(base.NumEdges(), ov.deadEdges.ids())
	// The live appended rows, in ID order.
	var nodes, edges []int // indexes into ov.extraNodes, ov.extraEdges
	var nodeKeys, edgeKeys []string
	var nodeRows, edgeRows []map[string]Value
	for i, row := range ov.extraNodes {
		if !ov.nodeDead(row.ID) {
			nodes, nodeKeys, nodeRows = append(nodes, i), append(nodeKeys, row.Key), append(nodeRows, row.Props)
		}
	}
	for i, row := range ov.extraEdges {
		if !ov.edgeDead(row.ID) {
			edges, edgeKeys, edgeRows = append(edges, i), append(edgeKeys, row.Key), append(edgeRows, row.Props)
		}
	}

	// Renumber through one prefix-sum pass — a live node's new ID is the
	// count of live nodes below it — and re-intern the node labels in
	// first-seen order.
	newID := make([]NodeID, g.NumNodes())
	f := &Graph{nodeLabel: make([]uint32, 0, ov.liveNodes)}
	var labels labelTable
	remap := make([]uint32, len(base.nodeLabels))
	for i := range remap {
		remap[i] = math.MaxUint32
	}
	for _, s := range nodeSpans {
		for id := s.lo; id < s.hi; id++ {
			l := base.nodeLabel[id]
			if remap[l] == math.MaxUint32 {
				remap[l] = labels.intern(base.nodeLabels[l])
			}
			newID[id] = NodeID(len(f.nodeLabel))
			f.nodeLabel = append(f.nodeLabel, remap[l])
		}
	}
	for _, i := range nodes {
		row := &ov.extraNodes[i]
		newID[row.ID] = NodeID(len(f.nodeLabel))
		f.nodeLabel = append(f.nodeLabel, labels.intern(row.Label))
	}
	f.nodeLabels = labels.names

	// The live edge labels, sorted, are the symbols.
	liveSym := make([]bool, len(base.symbols))
	for _, s := range edgeSpans {
		for _, sym := range base.edgeSym[s.lo:s.hi] {
			liveSym[sym] = true
		}
	}
	extraLabels := map[string]struct{}{}
	for _, i := range edges {
		if sym := ov.extraEdgeSym[i]; sym != NoSymbol {
			liveSym[sym] = true
		} else {
			extraLabels[ov.extraEdges[i].Label] = struct{}{}
		}
	}
	for sym, live := range liveSym {
		if live {
			f.symbols = append(f.symbols, base.symbols[sym])
		}
	}
	for l := range extraLabels {
		f.symbols = append(f.symbols, l)
	}
	sort.Strings(f.symbols)
	symRemap := make([]SymbolID, len(base.symbols))
	for sym, live := range liveSym {
		if live {
			symRemap[sym] = SymbolID(sort.SearchStrings(f.symbols, base.symbols[sym]))
		}
	}
	f.edgeSym = make([]SymbolID, 0, ov.liveEdges)
	f.edgeSrc = make([]NodeID, 0, ov.liveEdges)
	f.edgeDst = make([]NodeID, 0, ov.liveEdges)
	for _, s := range edgeSpans {
		for id := s.lo; id < s.hi; id++ {
			f.edgeSym = append(f.edgeSym, symRemap[base.edgeSym[id]])
			f.edgeSrc = append(f.edgeSrc, newID[base.edgeSrc[id]])
			f.edgeDst = append(f.edgeDst, newID[base.edgeDst[id]])
		}
	}
	for _, i := range edges {
		e := &ov.extraEdges[i]
		sym := ov.extraEdgeSym[i]
		if sym == NoSymbol {
			sym = SymbolID(sort.SearchStrings(f.symbols, e.Label))
		} else {
			sym = symRemap[sym]
		}
		f.edgeSym = append(f.edgeSym, sym)
		f.edgeSrc = append(f.edgeSrc, newID[e.Src])
		f.edgeDst = append(f.edgeDst, newID[e.Dst])
	}

	var err error
	if f.nodeKeys, err = foldKeys(&base.nodeKeys, nodeSpans, nodeKeys, "node"); err != nil {
		return nil, err
	}
	if f.edgeKeys, err = foldKeys(&base.edgeKeys, edgeSpans, edgeKeys, "edge"); err != nil {
		return nil, err
	}
	if f.nodeProps, err = foldProps(&base.nodeProps, nodeSpans, len(f.nodeLabel), nodeRows); err != nil {
		return nil, err
	}
	if f.edgeProps, err = foldProps(&base.edgeProps, edgeSpans, len(f.edgeSrc), edgeRows); err != nil {
		return nil, err
	}
	f.finish()
	ov.carryPostings(f, newID, nodes)
	return f, nil
}

// span is a range [lo, hi) of IDs.
type span struct{ lo, hi int }

// liveSpans returns the maximal spans of [0, n) that hold no ID of dead,
// which is ascending and may hold IDs past n.
func liveSpans(n int, dead []uint32) []span {
	var out []span
	lo := 0
	for _, d := range dead {
		if int(d) >= n {
			break
		}
		if int(d) > lo {
			out = append(out, span{lo, int(d)})
		}
		lo = int(d) + 1
	}
	if lo < n {
		out = append(out, span{lo, n})
	}
	return out
}

// foldKeys returns the key column of c's objects in spans, in order,
// followed by the keys extra: the quoted text is copied a span at a time
// and each key's clean bit with it, and the table is built once.
func foldKeys(c *keyColumn, spans []span, extra []string, kind string) (keyColumn, error) {
	count, size := len(extra), uint64(0)
	for _, s := range spans {
		count += s.hi - s.lo
		size += uint64(c.off[s.hi] - c.off[s.lo])
	}
	for _, k := range extra {
		size += uint64(len(k)) + 2
	}
	if size > math.MaxUint32 {
		return keyColumn{}, fmt.Errorf("graph: keys and their quotes take more than the 4 GiB their offsets address")
	}
	var buf strings.Builder
	buf.Grow(int(size))
	col := keyColumn{off: make([]uint32, 1, count+1), clean: make([]uint64, (count+63)/64)}
	for _, s := range spans {
		shift := c.off[s.lo] - uint32(buf.Len())
		buf.WriteString(c.text[c.off[s.lo]:c.off[s.hi]])
		for id := s.lo; id < s.hi; id++ {
			if c.clean[id/64]&(1<<(id%64)) != 0 {
				at := len(col.off) - 1
				col.clean[at/64] |= 1 << (at % 64)
			}
			col.off = append(col.off, c.off[id+1]-shift)
		}
	}
	for _, k := range extra {
		if jsonUnchanged(k) {
			at := len(col.off) - 1
			col.clean[at/64] |= 1 << (at % 64)
		}
		buf.WriteByte('"')
		buf.WriteString(k)
		buf.WriteByte('"')
		col.off = append(col.off, uint32(buf.Len()))
	}
	col.text = buf.String()
	if first, dup, ok := col.buildIndex(); !ok {
		return keyColumn{}, fmt.Errorf("graph: duplicate %s key %q (IDs %d and %d): %w", kind, col.key(first), first, dup, ErrDuplicateKey)
	}
	return col, nil
}

// foldProps returns the property columns of pc's objects in spans, in
// order, followed by the rows extra — count objects in all. The base's
// live cells are copied a column and a span at a time, in name order, a
// column none of them holds is dropped, and their string values are laid
// out in (ID, sorted name) order; then propBuilder.set writes each row of
// extra, which lays its strings out after them in the same order.
func foldProps(pc *propColumns, spans []span, count int, extra []map[string]Value) (propColumns, error) {
	first := count - len(extra)
	pb := propBuilder{cols: make(map[string]*valueColumn, len(pc.cols))}
	names := make([]string, 0, len(pc.cols))
	for name := range pc.cols {
		names = append(names, name)
	}
	sort.Strings(names)
	cols := make([]*valueColumn, 0, len(names)) // pb.cols, in name order
	for _, name := range names {
		old := pc.cols[name]
		// Capacity count: set grows the column over extra in place.
		col := &valueColumn{kinds: make([]ValueKind, first, count), bits: make([]uint64, first, count)}
		at := 0
		for _, s := range spans {
			copy(col.kinds[at:], old.kinds[s.lo:s.hi])
			copy(col.bits[at:], old.bits[s.lo:s.hi])
			at += s.hi - s.lo
		}
		if !slices.ContainsFunc(col.kinds, func(k ValueKind) bool { return k != KindNull }) {
			continue
		}
		pb.cols[name] = col
		cols = append(cols, col)
	}
	size := uint64(len(pc.text))
	for _, props := range extra {
		for _, v := range props {
			size += uint64(len(v.str))
		}
	}
	pb.buf.Grow(int(min(size, math.MaxUint32)))
	for id := 0; len(cols) > 0 && id < first; id++ { // no pass over objects when no column is kept
		for _, col := range cols {
			if col.kinds[id] != KindString {
				continue
			}
			old := col.bits[id]
			s := pc.text[old>>32 : uint32(old)]
			lo := uint64(pb.buf.Len())
			if lo+uint64(len(s)) > math.MaxUint32 {
				return propColumns{}, fmt.Errorf("graph: string property values take more than the 4 GiB their offsets address")
			}
			pb.buf.WriteString(s)
			col.bits[id] = lo<<32 | uint64(pb.buf.Len())
		}
	}
	pb.names = names // set sorts each row's names in it; the columns are laid out
	for j, props := range extra {
		if err := pb.set(uint32(first+j), props); err != nil {
			return propColumns{}, err
		}
	}
	if len(pb.cols) == 0 {
		return propColumns{}, nil
	}
	for _, col := range pb.cols {
		col.grow(count)
	}
	return propColumns{cols: pb.cols, text: pb.buf.String()}, nil
}
