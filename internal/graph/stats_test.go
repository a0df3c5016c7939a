package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestStatsMatchCounts checks Build's statistics against counts taken
// edge by edge, on random graphs with unlabelled nodes and edges, self
// loops and parallel edges; and that a delta view answers with its
// sealed base's statistics until compaction publishes new ones.
func TestStatsMatchCounts(t *testing.T) {
	labels := []string{"", "A", "B", "C"}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		b := NewBuilder()
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			b.AddNode(fmt.Sprintf("n%d", i), labels[rng.Intn(len(labels))], nil)
		}
		for i := rng.Intn(3 * n); i > 0; i-- {
			b.AddEdge(fmt.Sprintf("e%d", i), fmt.Sprintf("n%d", rng.Intn(n)), fmt.Sprintf("n%d", rng.Intn(n)),
				labels[rng.Intn(len(labels))], nil)
		}
		g := b.MustBuild()
		st := g.Stats()

		type pair struct {
			label string
			node  NodeID
		}
		nodeLabels, edgeLabels := map[string]int{}, map[string]int{}
		edges := map[string]int{}
		src, dst := map[pair]bool{}, map[pair]bool{}
		anySrc, anyDst := map[NodeID]bool{}, map[NodeID]bool{}
		for _, v := range g.Nodes() {
			nodeLabels[v.Label]++
		}
		for _, e := range g.Edges() {
			edgeLabels[e.Label]++
			edges[e.Label]++
			src[pair{e.Label, e.Src}], dst[pair{e.Label, e.Dst}] = true, true
			anySrc[e.Src], anyDst[e.Dst] = true, true
		}
		want := func(what string, got, want int) {
			t.Helper()
			if got != want {
				t.Fatalf("trial %d: %s = %d, want %d", trial, what, got, want)
			}
		}
		want("Nodes", st.Nodes, g.NumNodes())
		want("Edges", st.Edges, g.NumEdges())
		want("Any.Edges", st.Any.Edges, g.NumEdges())
		want("Any.DistinctSrc", st.Any.DistinctSrc, len(anySrc))
		want("Any.DistinctDst", st.Any.DistinctDst, len(anyDst))
		want(`NodeLabelCount("")`, st.NodeLabelCount(""), g.NumNodes())
		want(`EdgeLabelCount("")`, st.EdgeLabelCount(""), g.NumEdges())
		for _, l := range append(labels, "Nope") {
			if l != "" {
				want("NodeLabelCount("+l+")", st.NodeLabelCount(l), nodeLabels[l])
				want("EdgeLabelCount("+l+")", st.EdgeLabelCount(l), edgeLabels[l])
			}
			sym := st.SymbolByLabel(l)
			if edges[l] == 0 {
				if sym != nil {
					t.Fatalf("trial %d: SymbolByLabel(%q) = %+v for a label no edge carries", trial, l, *sym)
				}
				continue
			}
			distinct := func(m map[pair]bool) (c int) {
				for p := range m {
					if p.label == l {
						c++
					}
				}
				return c
			}
			want("symbol "+l+" Edges", sym.Edges, edges[l])
			want("symbol "+l+" DistinctSrc", sym.DistinctSrc, distinct(src))
			want("symbol "+l+" DistinctDst", sym.DistinctDst, distinct(dst))
		}

		s := NewStore(g, StoreOptions{CompactThreshold: -1})
		mustApply(t, s, Op{Kind: OpAddNode, Key: "x", Label: "A"})
		if s.Graph().ov == nil || s.Graph().Stats() != st {
			t.Fatalf("trial %d: a delta view does not answer with its base's statistics", trial)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := s.Graph().Stats(); got == st || got.Nodes != st.Nodes+1 || got.NodeLabelCount("A") != nodeLabels["A"]+1 {
			t.Fatalf("trial %d: compacted statistics count %d nodes, %d labelled A (same as base: %v), want %d, %d",
				trial, got.Nodes, got.NodeLabelCount("A"), got == st, st.Nodes+1, nodeLabels["A"]+1)
		}
		s.Close()
	}
}
