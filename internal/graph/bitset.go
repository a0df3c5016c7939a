package graph

// Bitset successor index: the boolean-adjacency view of the CSR. For
// every edge-label symbol s the index holds an n×n boolean matrix in
// row-major bitset form — row v is the set of successors reachable from v
// over one live s-labelled edge — plus one "any" matrix, the union over
// all symbols. No evaluator reads it: reachability runs the product BFS
// over the CSR (automaton.Reach). The benchmark's set-up still builds it
// and reports its build time and size (bench/run.go).
//
// The index is derived state, built lazily from the live adjacency on
// first use and cached per *Graph* value. That makes staleness
// impossible by construction: Store.Apply and compaction always publish
// a *fresh* Graph value (a new delta view, or a resealed CSR), so a
// cached index can never outlive the adjacency it was built from.

// BitsetIndex is the per-symbol successor bitset index of one Graph.
// Immutable once built; safe for concurrent readers.
type BitsetIndex struct {
	n     int // node ID space size (rows and row width in bits)
	words int // uint64 words per row: ceil(n/64)

	// out[sym] is the flat n×words successor matrix of symbol sym;
	// anyOut is the union over all symbols (the ANY-label transition).
	out    [][]uint64
	anyOut []uint64
}

// Bytes returns the total size of the index's bitset storage.
func (ix *BitsetIndex) Bytes() int64 {
	return int64(len(ix.out)+1) * int64(ix.n) * int64(ix.words) * 8
}

// Bitsets returns the graph's bitset successor index, building and
// caching it on first call; ok is always true. Safe for concurrent use; a
// racing double build is resolved by publishing exactly one winner.
func (g *Graph) Bitsets() (ix *BitsetIndex, ok bool) {
	if g.bitsets.Load() == nil {
		g.bitsets.CompareAndSwap(nil, g.buildBitsets())
	}
	return g.bitsets.Load(), true
}

// buildBitsets constructs the index in one pass over the live adjacency.
// Overlay run accessors materialize exactly the live edges of patched
// nodes and fall through to the base CSR elsewhere, so no per-edge alive
// checks are needed, and tombstoned nodes contribute empty rows.
func (g *Graph) buildBitsets() *BitsetIndex {
	n := g.NumNodes()
	words := (n + 63) / 64
	ix := &BitsetIndex{
		n:      n,
		words:  words,
		out:    make([][]uint64, g.NumSymbols()),
		anyOut: make([]uint64, n*words),
	}
	for s := range ix.out {
		ix.out[s] = make([]uint64, n*words)
	}
	for v := 0; v < n; v++ {
		off := v * words
		for _, run := range g.OutRuns(NodeID(v)) {
			slab := ix.out[run.Sym]
			for _, e := range run.Edges {
				_, dst := g.Endpoints(e)
				slab[off+int(dst>>6)] |= 1 << (dst & 63)
				ix.anyOut[off+int(dst>>6)] |= 1 << (dst & 63)
			}
		}
	}
	return ix
}
