package graph

import (
	"testing"
)

// bitsetFixture builds a small labelled multigraph:
//
//	n0 -a-> n1, n0 -a-> n2, n1 -b-> n2, n2 -a-> n0, n2 -b-> n3, n3 -b-> n3
func bitsetFixture(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	for _, k := range []string{"n0", "n1", "n2", "n3"} {
		b.AddNode(k, "N", nil)
	}
	b.AddEdge("e0", "n0", "n1", "a", nil)
	b.AddEdge("e1", "n0", "n2", "a", nil)
	b.AddEdge("e2", "n1", "n2", "b", nil)
	b.AddEdge("e3", "n2", "n0", "a", nil)
	b.AddEdge("e4", "n2", "n3", "b", nil)
	b.AddEdge("e5", "n3", "n3", "b", nil)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// row returns node v's row of the flat n×words matrix m.
func (ix *BitsetIndex) row(m []uint64, v NodeID) []uint64 {
	return m[int(v)*ix.words : (int(v)+1)*ix.words]
}

// checkBitsetsAgainstAdjacency verifies every row of the index against a
// brute-force scan of the view's live symbol runs.
func checkBitsetsAgainstAdjacency(t *testing.T, g *Graph, ix *BitsetIndex) {
	t.Helper()
	n := g.NumNodes()
	if ix.n != n {
		t.Fatalf("index covers %d nodes, graph has %d", ix.n, n)
	}
	words := ix.words
	for v := 0; v < n; v++ {
		wantAny := make([]uint64, words)
		for sym := 0; sym < g.NumSymbols(); sym++ {
			want := make([]uint64, words)
			adj := g.OutRuns(NodeID(v))
			for _, run := range adj.Runs {
				if run.Sym != SymbolID(sym) {
					continue
				}
				for _, e := range adj.Edges[run.Lo:run.Hi] {
					_, dst := g.Endpoints(e)
					want[dst>>6] |= 1 << (dst & 63)
					wantAny[dst>>6] |= 1 << (dst & 63)
				}
			}
			got := ix.row(ix.out[sym], NodeID(v))
			for w := 0; w < words; w++ {
				if got[w] != want[w] {
					t.Fatalf("node %d sym %d word %d: got %064b want %064b", v, sym, w, got[w], want[w])
				}
			}
		}
		gotAny := ix.row(ix.anyOut, NodeID(v))
		for w := 0; w < words; w++ {
			if gotAny[w] != wantAny[w] {
				t.Fatalf("node %d any-row word %d: got %064b want %064b", v, w, gotAny[w], wantAny[w])
			}
		}
	}
}

func TestBitsetsSealedBuild(t *testing.T) {
	g := bitsetFixture(t)
	ix, _ := g.Bitsets()
	checkBitsetsAgainstAdjacency(t, g, ix)
	// The cache must return the same index on a second call.
	if ix2, _ := g.Bitsets(); ix2 != ix {
		t.Fatalf("second Bitsets call returned a different index (%p vs %p)", ix2, ix)
	}
}

// TestBitsetsOverlayPatch builds the index of a delta view whose base
// built its own index first: the view's index is its own, built from the
// overlay's patched adjacency, with tombstoned nodes' rows empty and no
// row pointing at them.
func TestBitsetsOverlayPatch(t *testing.T) {
	s := NewStore(bitsetFixture(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	ixBase, _ := s.Graph().Bitsets()
	if _, err := s.Apply(Batch{Ops: []Op{
		{Kind: OpAddNode, Key: "n4", Label: "N"},
		{Kind: OpAddEdge, Key: "e6", Src: "n3", Dst: "n4", Label: "a"},
		{Kind: OpAddEdge, Key: "e7", Src: "n4", Dst: "n0", Label: "b"},
		{Kind: OpDelEdge, Key: "e1"},
		{Kind: OpDelNode, Key: "n1"}, // cascades e0 and e2
	}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	g := s.Graph()
	if g.ov == nil {
		t.Fatal("expected a delta view after Apply")
	}
	ix, _ := g.Bitsets()
	if ix == ixBase {
		t.Fatal("delta view inherited its base's index")
	}
	checkBitsetsAgainstAdjacency(t, g, ix)

	deadID := NodeID(1) // n1
	for sym := 0; sym < g.NumSymbols(); sym++ {
		for w, word := range ix.row(ix.out[sym], deadID) {
			if word != 0 {
				t.Fatalf("dead node %d has out bits (sym %d word %d)", deadID, sym, w)
			}
		}
	}
	for v := 0; v < ix.n; v++ {
		if ix.row(ix.anyOut, NodeID(v))[deadID>>6]&(1<<(deadID&63)) != 0 {
			t.Fatalf("node %d still reaches tombstoned node %d", v, deadID)
		}
	}
}

// TestBitsetsCompactionFreshIndex pins the staleness-by-construction
// argument: compaction publishes a fresh *Graph whose index is rebuilt,
// not inherited from the delta view.
func TestBitsetsCompactionFreshIndex(t *testing.T) {
	s := NewStore(bitsetFixture(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	if _, err := s.Apply(Batch{Ops: []Op{{Kind: OpDelEdge, Key: "e4"}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	ixDelta, _ := s.Graph().Bitsets()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	gSealed := s.Graph()
	if gSealed.ov != nil {
		t.Fatal("expected a sealed graph after Compact")
	}
	ixSealed, _ := gSealed.Bitsets()
	if ixSealed == ixDelta {
		t.Fatal("compacted graph inherited the delta view's index")
	}
	checkBitsetsAgainstAdjacency(t, gSealed, ixSealed)
}
