package graph

// Stats is what the cost-based planner (opt.CostModel) reads of a graph:
// node and edge totals, per-label counts, and per edge-label symbol the
// edge count and the distinct nodes those edges leave and enter. Build
// computes it once, in one pass over the CSR runs, and answers label
// counts from the label index instead of copying them.
//
// A delta view shares its sealed base's Stats, so the statistics change
// only when a reseal or compaction publishes a new base. The planner acts
// only in order-insensitive contexts, so estimates that lag the delta can
// cost speed, never results; in exchange one Stats value names the
// statistics a plan was costed against across every batch on one base.
type Stats struct {
	Nodes, Edges int
	// Any aggregates every edge regardless of its label.
	Any SymbolStats

	symbols      []SymbolStats // by SymbolID
	symbolOf     map[string]SymbolID
	nodesByLabel map[string][]NodeID
	edgesByLabel map[string][]EdgeID
}

// SymbolStats counts the edges of one symbol and the distinct nodes with
// at least one outgoing (DistinctSrc) or incoming (DistinctDst) such edge.
type SymbolStats struct {
	Edges, DistinctSrc, DistinctDst int
}

// buildStats fills g.stats from the sealed CSR: each run is one
// (node, symbol) pair, so counting runs counts distinct endpoints.
func (g *Graph) buildStats() {
	st := &Stats{
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Any:          SymbolStats{Edges: g.NumEdges()},
		symbols:      make([]SymbolStats, len(g.symbols)),
		symbolOf:     g.symbolOf,
		nodesByLabel: g.nodesByLabel,
		edgesByLabel: g.edgesByLabel,
	}
	for _, run := range g.outRuns {
		s := &st.symbols[run.Sym]
		s.Edges += int(run.Hi - run.Lo)
		s.DistinctSrc++
	}
	for _, run := range g.inRuns {
		st.symbols[run.Sym].DistinctDst++
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.outOff[v+1] > g.outOff[v] {
			st.Any.DistinctSrc++
		}
		if g.inOff[v+1] > g.inOff[v] {
			st.Any.DistinctDst++
		}
	}
	g.stats = st
}

// Stats returns the planner's statistics: on a delta view, its sealed
// base's.
func (g *Graph) Stats() *Stats {
	if g.ov != nil {
		return g.ov.base.stats
	}
	return g.stats
}

// NodeLabelCount returns the number of nodes labelled l; l == "" returns
// the total (no label constraint).
func (st *Stats) NodeLabelCount(l string) int {
	if l == "" {
		return st.Nodes
	}
	return len(st.nodesByLabel[l])
}

// EdgeLabelCount returns the number of edges labelled l; l == "" returns
// the total.
func (st *Stats) EdgeLabelCount(l string) int {
	if l == "" {
		return st.Edges
	}
	return len(st.edgesByLabel[l])
}

// SymbolByLabel returns the counts of the symbol interning label l, or nil
// when no edge carries it.
func (st *Stats) SymbolByLabel(l string) *SymbolStats {
	sym, ok := st.symbolOf[l]
	if !ok {
		return nil
	}
	return &st.symbols[sym]
}
