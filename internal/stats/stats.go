// Package stats holds the one-pass graph statistics that drive the
// cost-based planner in internal/opt: per-label node and edge counts,
// per-symbol out/in degree histograms, and distinct source/target counts
// per symbol. graph.Build fills a Builder while it lays out the CSR
// adjacency — one extra pass over the already-computed symbol runs, O(V +
// runs) time — so every Graph carries its statistics from birth and the
// planner never touches the graph itself.
//
// The package is deliberately free of graph dependencies (symbols are
// plain ints, labels plain strings): graph imports stats, not the other
// way around, so the statistics can be computed at Build time without an
// import cycle.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// HistBuckets is the number of log2 degree buckets a Hist tracks. Bucket
// i counts nodes whose degree d satisfies 2^i <= d < 2^(i+1); the last
// bucket absorbs everything larger.
const HistBuckets = 16

// Hist is a logarithmic histogram of per-node degrees for one symbol and
// direction. Only nodes with degree >= 1 are observed, so the histogram's
// total equals the distinct endpoint count for that (symbol, direction).
type Hist [HistBuckets]int32

// bucketOf returns the log2 bucket of a degree >= 1.
func bucketOf(d int) int {
	b := 0
	for d > 1 && b < HistBuckets-1 {
		d >>= 1
		b++
	}
	return b
}

// Observe records one node with the given degree (>= 1).
func (h *Hist) Observe(degree int) {
	if degree < 1 {
		return
	}
	h[bucketOf(degree)]++
}

// Count returns the number of observed nodes.
func (h *Hist) Count() int {
	n := 0
	for _, c := range h {
		n += int(c)
	}
	return n
}

// Symbol aggregates the statistics of one edge-label symbol: total edge
// count, the number of distinct source and target nodes, maximum degrees,
// and the out/in degree histograms over the nodes that carry the symbol.
type Symbol struct {
	Label       string
	Edges       int
	DistinctSrc int // nodes with >= 1 outgoing edge of this symbol
	DistinctDst int // nodes with >= 1 incoming edge of this symbol
	MaxOut      int
	MaxIn       int
	OutHist     Hist
	InHist      Hist
}

// OutFanout is the average out-degree of the symbol over its distinct
// sources — the per-step branching factor of a forward expansion.
func (s *Symbol) OutFanout() float64 {
	if s.DistinctSrc == 0 {
		return 0
	}
	return float64(s.Edges) / float64(s.DistinctSrc)
}

// InFanout is the average in-degree over distinct targets — the branching
// factor of a backward expansion.
func (s *Symbol) InFanout() float64 {
	if s.DistinctDst == 0 {
		return 0
	}
	return float64(s.Edges) / float64(s.DistinctDst)
}

// Stats is the full statistics bundle of one graph.
type Stats struct {
	Nodes int
	Edges int
	// NodeLabels / EdgeLabels count labelled objects per label; unlabelled
	// objects appear under "".
	NodeLabels map[string]int
	EdgeLabels map[string]int
	// Symbols is indexed by the graph's dense SymbolID.
	Symbols []Symbol
	// Any aggregates all edges regardless of symbol: Any.DistinctSrc is
	// the number of nodes with any outgoing edge, Any.OutHist the total
	// out-degree histogram, and so on.
	Any Symbol
}

// NodeLabelCount returns the number of nodes labelled l; l == "" returns
// the total node count (any node matches "no label constraint").
func (st *Stats) NodeLabelCount(l string) int {
	if l == "" {
		return st.Nodes
	}
	return st.NodeLabels[l]
}

// EdgeLabelCount returns the number of edges labelled l; l == "" returns
// the total edge count.
func (st *Stats) EdgeLabelCount(l string) int {
	if l == "" {
		return st.Edges
	}
	return st.EdgeLabels[l]
}

// SymbolByLabel returns the statistics of the symbol interning label l,
// or nil when no edge carries it.
func (st *Stats) SymbolByLabel(l string) *Symbol {
	for i := range st.Symbols {
		if st.Symbols[i].Label == l {
			return &st.Symbols[i]
		}
	}
	return nil
}

// String renders the statistics as a compact multi-line summary, symbols
// in label order — the -explain statistics block.
func (st *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph: %d nodes, %d edges, %d symbols\n",
		st.Nodes, st.Edges, len(st.Symbols))
	labels := make([]string, 0, len(st.NodeLabels))
	for l := range st.NodeLabels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		name := l
		if name == "" {
			name = "(unlabelled)"
		}
		fmt.Fprintf(&sb, "node label %-14s %d\n", name, st.NodeLabels[l])
	}
	for i := range st.Symbols {
		s := &st.Symbols[i]
		name := s.Label
		if name == "" {
			name = "(unlabelled)"
		}
		fmt.Fprintf(&sb, "edge label %-14s %d edges, %d→%d distinct src→dst, fanout out=%.2f in=%.2f, max out=%d in=%d\n",
			name, s.Edges, s.DistinctSrc, s.DistinctDst, s.OutFanout(), s.InFanout(), s.MaxOut, s.MaxIn)
	}
	return sb.String()
}

// Builder accumulates one pass of per-node observations into a Stats.
// graph.Build drives it: declare the symbol table, report per-label
// counts, then observe each node's per-symbol and total degrees.
type Builder struct {
	st Stats
}

// NewBuilder returns a builder for a graph with the given symbol count.
func NewBuilder(numSymbols int) *Builder {
	b := &Builder{}
	b.st.Symbols = make([]Symbol, numSymbols)
	b.st.NodeLabels = make(map[string]int)
	b.st.EdgeLabels = make(map[string]int)
	b.st.Any.Label = "-"
	return b
}

// SetSymbol names the symbol with dense id sym.
func (b *Builder) SetSymbol(sym int, label string) {
	b.st.Symbols[sym].Label = label
}

// NodeLabelCount records the number of nodes labelled l.
func (b *Builder) NodeLabelCount(l string, n int) { b.st.NodeLabels[l] = n }

// EdgeLabelCount records the number of edges labelled l.
func (b *Builder) EdgeLabelCount(l string, n int) { b.st.EdgeLabels[l] = n }

// ObserveOut records that one node has deg (>= 1) outgoing edges of
// symbol sym. Each distinct (node, symbol) pair must be observed at most
// once; the per-symbol edge totals and distinct-source counts derive from
// these calls.
func (b *Builder) ObserveOut(sym, deg int) {
	s := &b.st.Symbols[sym]
	s.Edges += deg
	s.DistinctSrc++
	if deg > s.MaxOut {
		s.MaxOut = deg
	}
	s.OutHist.Observe(deg)
}

// ObserveIn records that one node has deg (>= 1) incoming edges of sym.
func (b *Builder) ObserveIn(sym, deg int) {
	s := &b.st.Symbols[sym]
	s.DistinctDst++
	if deg > s.MaxIn {
		s.MaxIn = deg
	}
	s.InHist.Observe(deg)
}

// ObserveAnyOut records one node's total out-degree (>= 1) across all
// symbols.
func (b *Builder) ObserveAnyOut(deg int) {
	a := &b.st.Any
	a.Edges += deg
	a.DistinctSrc++
	if deg > a.MaxOut {
		a.MaxOut = deg
	}
	a.OutHist.Observe(deg)
}

// ObserveAnyIn records one node's total in-degree (>= 1).
func (b *Builder) ObserveAnyIn(deg int) {
	a := &b.st.Any
	a.DistinctDst++
	if deg > a.MaxIn {
		a.MaxIn = deg
	}
	a.InHist.Observe(deg)
}

// Finish seals the statistics with the global node/edge counts.
func (b *Builder) Finish(nodes, edges int) *Stats {
	b.st.Nodes = nodes
	b.st.Edges = edges
	return &b.st
}
