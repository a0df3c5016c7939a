// Package graph implements the property graph data model of Definition 2.1
// in "Path-based Algebraic Foundations of Graph Query Languages"
// (Angles, Bonifati, García, Vrgoč — EDBT 2025).
//
// A property graph is a tuple G = (N, E, ρ, λ, ν): finite sets of node and
// edge identifiers, a total endpoint function ρ : E → N×N, a partial label
// function λ and a partial property function ν. Nodes and edges are dense
// IDs, 0..NumNodes-1 and 0..NumEdges-1, and a sealed graph stores each
// function as columns indexed by ID that hold no pointers (columns.go): ρ
// as two arrays of node IDs, λ as one small interned label ID per object,
// ν as one dense column of fixed-size cells per property key, and the
// external keys as substrings of one string per kind, found through an
// open-addressed table of IDs. The adjacency is CSR in both
// directions, each slot holding the edge and the node at its other end, so
// a search step reads its neighbour where it reads its edge. The garbage
// collector therefore marks a sealed graph in time independent of its
// size, and Node, Edge, Nodes and Edges build row values from the columns
// only for the callers that ask for them. Each key is stored once, between
// its quotes, so writers of path output copy a key that needs no escaping
// as its JSON string (keyjson.go).
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// NodeID identifies a node within one Graph. IDs are dense: 0..NumNodes-1.
type NodeID uint32

// EdgeID identifies an edge within one Graph. IDs are dense: 0..NumEdges-1.
type EdgeID uint32

// SymbolID is the dense intern ID of an edge label within one Graph.
// Symbols are assigned at Build in lexicographic label order, so they are
// stable for a given edge-label set: 0..NumSymbols-1. The evaluator works
// entirely in SymbolIDs — every per-edge label comparison on the hot path
// is an integer compare against the interned symbol, never a string.
type SymbolID int32

// NoSymbol is returned by SymbolOf for labels that no edge carries.
const NoSymbol SymbolID = -1

// SymbolRun is one label-homogeneous run of a node's adjacency in one
// direction: positions Lo..Hi-1 of the node's Adjacency hold the edges
// with symbol Sym, ascending by edge ID. It holds no pointer, so the
// graph's run array is not scanned by the garbage collector.
type SymbolRun struct {
	Sym    SymbolID
	Lo, Hi int32
}

// Adjacency is one node's adjacency in one direction, in CSR order:
// ascending by (label symbol, edge ID). Edges[i] is an edge and Nbrs[i]
// the node at its other end — the head of an outgoing edge, the tail of
// an incoming one. Runs partitions the positions into label-homogeneous
// runs, symbols ascending. The slices alias shared storage; do not modify.
type Adjacency struct {
	Edges []EdgeID
	Nbrs  []NodeID
	Runs  []SymbolRun
}

// Find returns the run of symbol sym; ok is false when the node has no
// such edge. It binary-searches Runs, whose symbols ascend.
//
//pathalgebra:hotpath
func (a Adjacency) Find(sym SymbolID) (run SymbolRun, ok bool) {
	lo, hi := 0, len(a.Runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Runs[mid].Sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.Runs) && a.Runs[lo].Sym == sym {
		return a.Runs[lo], true
	}
	return SymbolRun{}, false
}

// Node is an entity of the graph as a row: what the Builder and batches
// take, and what Graph.Node builds from the columns. Label may be empty
// (λ is partial) and Props may be nil (ν is partial).
type Node struct {
	ID    NodeID
	Key   string // external, human-readable identifier (e.g. "n1")
	Label string
	Props map[string]Value
}

// Edge is a directed relationship between two nodes, as a row (see Node).
type Edge struct {
	ID    EdgeID
	Key   string // external, human-readable identifier (e.g. "e1")
	Src   NodeID
	Dst   NodeID
	Label string
	Props map[string]Value
}

// Graph is an immutable property graph. Construct one with a Builder;
// after Build the graph is safe for concurrent readers.
type Graph struct {
	// ρ: edge e runs from edgeSrc[e] to edgeDst[e].
	edgeSrc, edgeDst []NodeID

	// λ for nodes: node n's label is nodeLabels[nodeLabel[n]]. Edge
	// labels are the symbols below.
	nodeLabels []string
	nodeLabel  []uint32

	// External keys and ν, as columns (columns.go).
	nodeKeys, edgeKeys   keyColumn
	nodeProps, edgeProps propColumns

	// Edge-label symbol table, built once at Build: symbols holds the
	// distinct edge labels in lexicographic order, symbolOf inverts it,
	// and edgeSym maps every edge to its interned symbol.
	symbols  []string
	symbolOf map[string]SymbolID
	edgeSym  []SymbolID

	// Adjacency in CSR form, built once: per node the edges occupy one
	// contiguous range of the data array, partitioned into label-
	// homogeneous runs — (symbol, edge ID) ascending — so the evaluator
	// can iterate exactly the edges matching an automaton transition
	// symbol with zero string hashing or comparison. The nbr arrays run
	// parallel to the data arrays: the edge's head out, its tail in. A
	// delta view holds its base's arrays here too (overlay.graph).
	outOff, inOff       []int32     // node n's range: data[off[n]:off[n+1]]
	outData, inData     []EdgeID    // CSR data arrays
	outNbr, inNbr       []NodeID    // the other end of each data slot's edge
	outRunOff, inRunOff []int32     // node n's runs: runs[runOff[n]:runOff[n+1]]
	outRuns, inRuns     []SymbolRun // per-(node, symbol) runs, offsets into the node's range

	nodesByLabel map[string][]NodeID
	edgesByLabel map[string][]EdgeID

	// stats is what the cost-based planner reads (stats.go); nil on a
	// delta view, which answers with its base's.
	stats *Stats

	// bitsets lazily caches this graph value's bitset successor index
	// (bitset.go). Every Apply/compaction publishes a fresh *Graph, so
	// the cache's lifetime equals the adjacency's — it can never serve
	// stale rows.
	bitsets atomic.Pointer[BitsetIndex]

	// props lazily caches this graph value's node-property equality
	// postings, one index per key (propindex.go); sealed graphs only —
	// a delta view reads its base's.
	props atomic.Pointer[map[string]*propIndex]

	// ov, when non-nil, makes this Graph a delta view: an immutable
	// overlay of appended nodes/edges, tombstones and per-node adjacency
	// patches over a sealed base epoch (see overlay.go). A sealed graph
	// has ov == nil and every accessor below takes its original path —
	// the one extra, perfectly predicted nil check is the entire hot-path
	// cost of the live-graph layer.
	ov *overlay
}

// NumNodes returns the size of the node ID space: 0..NumNodes-1 are valid
// NodeIDs. On a delta view this includes tombstoned nodes — use NodeAlive
// to skip them, or LiveNodes for the live count.
func (g *Graph) NumNodes() int {
	if g.ov != nil {
		return len(g.ov.base.nodeLabel) + len(g.ov.extraNodes)
	}
	return len(g.nodeLabel)
}

// NumEdges returns the size of the edge ID space (see NumNodes).
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return len(g.ov.base.edgeSrc) + len(g.ov.extraEdges)
	}
	return len(g.edgeSrc)
}

// LiveNodes returns the number of live (non-tombstoned) nodes.
func (g *Graph) LiveNodes() int {
	if g.ov != nil {
		return g.ov.liveNodes
	}
	return g.NumNodes()
}

// LiveEdges returns the number of live edges.
func (g *Graph) LiveEdges() int {
	if g.ov != nil {
		return g.ov.liveEdges
	}
	return g.NumEdges()
}

// NodeAlive reports whether id is a live node of this view — always true
// on a sealed graph, false for tombstoned IDs on a delta view. Evaluators
// iterating the dense ID space must skip dead IDs.
//
//pathalgebra:hotpath
func (g *Graph) NodeAlive(id NodeID) bool {
	if g.ov != nil {
		return !g.ov.nodeDead(id)
	}
	return true
}

// EdgeAlive is NodeAlive for edges.
//
//pathalgebra:hotpath
func (g *Graph) EdgeAlive(id EdgeID) bool {
	if g.ov != nil {
		return !g.ov.edgeDead(id)
	}
	return true
}

// Node returns the node with the given ID as a row built from the
// columns; do not modify its Props. It panics if id is out of range,
// which indicates a path from a different graph. Tombstoned IDs remain
// addressable (paths evaluated on this view never contain them).
func (g *Graph) Node(id NodeID) Node {
	if g.ov != nil {
		if n := g.ov.extraNode(id); n != nil {
			return *n
		}
		g = g.ov.base
	}
	return Node{ID: id, Key: g.NodeKey(id), Label: g.NodeLabel(id), Props: g.nodeProps.row(uint32(id))}
}

// Edge returns the edge with the given ID as a row (see Node).
func (g *Graph) Edge(id EdgeID) Edge {
	if g.ov != nil {
		if e := g.ov.extraEdge(id); e != nil {
			return *e
		}
		g = g.ov.base
	}
	return Edge{ID: id, Key: g.EdgeKey(id), Src: g.edgeSrc[id], Dst: g.edgeDst[id],
		Label: g.EdgeLabel(id), Props: g.edgeProps.row(uint32(id))}
}

// NodeByKey looks up a live node by its external key.
func (g *Graph) NodeByKey(key string) (Node, bool) {
	id, ok := g.NodeIDByKey(key)
	if !ok {
		return Node{}, false
	}
	return g.Node(id), true
}

// EdgeByKey looks up a live edge by its external key.
func (g *Graph) EdgeByKey(key string) (Edge, bool) {
	id, ok := g.EdgeIDByKey(key)
	if !ok {
		return Edge{}, false
	}
	return g.Edge(id), true
}

// NodeIDByKey returns the ID of the live node with the given key.
//
//pathalgebra:hotpath
func (g *Graph) NodeIDByKey(key string) (NodeID, bool) {
	if g.ov != nil {
		return g.ov.nodeByKey(key)
	}
	id, ok := g.nodeKeys.find(key)
	return NodeID(id), ok
}

// EdgeIDByKey returns the ID of the live edge with the given key.
//
//pathalgebra:hotpath
func (g *Graph) EdgeIDByKey(key string) (EdgeID, bool) {
	if g.ov != nil {
		return g.ov.edgeByKey(key)
	}
	id, ok := g.edgeKeys.find(key)
	return EdgeID(id), ok
}

// NodeKey returns node id's external key, without allocating.
//
//pathalgebra:hotpath
func (g *Graph) NodeKey(id NodeID) string {
	if g.ov != nil {
		return g.ov.nodeKey(id)
	}
	return g.nodeKeys.key(uint32(id))
}

// EdgeKey returns edge id's external key, without allocating.
//
//pathalgebra:hotpath
func (g *Graph) EdgeKey(id EdgeID) string {
	if g.ov != nil {
		return g.ov.edgeKey(id)
	}
	return g.edgeKeys.key(uint32(id))
}

// Nodes returns all live nodes in ID order, as fresh rows built from the
// columns — a cold path for reporting and tests.
func (g *Graph) Nodes() []Node {
	out := make([]Node, 0, g.LiveNodes())
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.NodeAlive(id) {
			out = append(out, g.Node(id))
		}
	}
	return out
}

// Edges returns all live edges in ID order (see Nodes).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.LiveEdges())
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		if g.EdgeAlive(id) {
			out = append(out, g.Edge(id))
		}
	}
	return out
}

// Out returns the IDs of live edges leaving n in the CSR order: ascending
// by (label symbol, edge ID). The slice aliases shared storage; do not
// modify.
//
//pathalgebra:hotpath
func (g *Graph) Out(n NodeID) []EdgeID {
	return g.OutRuns(n).Edges
}

// In returns the IDs of live edges entering n in (label symbol, edge ID)
// order.
//
//pathalgebra:hotpath
func (g *Graph) In(n NodeID) []EdgeID {
	return g.InRuns(n).Edges
}

// OutRuns returns n's outgoing adjacency: its edges, their heads and its
// label-homogeneous runs, symbols ascending. A delta view answers from
// its patch for n, else from its base's CSR, whose arrays it shares
// (overlay.graph); every node a batch appended has a patch. The search
// calls it once per expanded node, so it stays within the inliner's
// budget, which leaves room for two index steps into the patch table.
//
//pathalgebra:hotpath
func (g *Graph) OutRuns(n NodeID) Adjacency {
	if g.ov != nil {
		if p := g.ov.outPatch.leaves[n/cowFan].vals[n%cowFan]; p != nil {
			return *p
		}
	}
	return g.outAdj(n)
}

// InRuns returns n's incoming adjacency: its edges, their tails and its
// label-homogeneous runs, symbols ascending (see OutRuns).
//
//pathalgebra:hotpath
func (g *Graph) InRuns(n NodeID) Adjacency {
	if g.ov != nil {
		if p := g.ov.inPatch.leaves[n/cowFan].vals[n%cowFan]; p != nil {
			return *p
		}
	}
	return g.inAdj(n)
}

// outAdj is OutRuns from the CSR arrays.
//
//pathalgebra:hotpath
func (g *Graph) outAdj(n NodeID) Adjacency {
	lo, hi := g.outOff[n], g.outOff[n+1]
	return Adjacency{
		Edges: g.outData[lo:hi],
		Nbrs:  g.outNbr[lo:hi],
		Runs:  g.outRuns[g.outRunOff[n]:g.outRunOff[n+1]],
	}
}

// inAdj is InRuns from the CSR arrays.
//
//pathalgebra:hotpath
func (g *Graph) inAdj(n NodeID) Adjacency {
	lo, hi := g.inOff[n], g.inOff[n+1]
	return Adjacency{
		Edges: g.inData[lo:hi],
		Nbrs:  g.inNbr[lo:hi],
		Runs:  g.inRuns[g.inRunOff[n]:g.inRunOff[n+1]],
	}
}

// OutWithSymbol returns the edges leaving n whose label has the given
// symbol, ascending by edge ID. It binary-searches n's runs (symbols are
// ascending), so the cost is O(log runs(n)) and no non-matching edge is
// ever touched.
//
//pathalgebra:hotpath
func (g *Graph) OutWithSymbol(n NodeID, sym SymbolID) []EdgeID {
	adj := g.OutRuns(n)
	if r, ok := adj.Find(sym); ok {
		return adj.Edges[r.Lo:r.Hi:r.Hi]
	}
	return nil
}

// InWithSymbol is OutWithSymbol for incoming edges.
//
//pathalgebra:hotpath
func (g *Graph) InWithSymbol(n NodeID, sym SymbolID) []EdgeID {
	adj := g.InRuns(n)
	if r, ok := adj.Find(sym); ok {
		return adj.Edges[r.Lo:r.Hi:r.Hi]
	}
	return nil
}

// NumSymbols returns the size of the edge-label symbol table. A delta
// view shares its base's symbol table: a batch introducing a label unseen
// by the sealed epoch forces a compaction (see Store.Apply), so the
// lexicographic symbol order the CSR discovery order depends on is never
// perturbed by an overlay.
func (g *Graph) NumSymbols() int {
	if g.ov != nil {
		return len(g.ov.base.symbols)
	}
	return len(g.symbols)
}

// SymbolOf returns the symbol interned for label, or NoSymbol when no edge
// carries it.
func (g *Graph) SymbolOf(label string) SymbolID {
	if g.ov != nil {
		g = g.ov.base
	}
	if sym, ok := g.symbolOf[label]; ok {
		return sym
	}
	return NoSymbol
}

// NodesWithLabel returns live node IDs labelled l, ascending. l == "" has
// no entry (labelIndex), on a delta view too, whose own label maps are
// nil. The slice may alias the index; do not modify.
func (g *Graph) NodesWithLabel(l string) []NodeID {
	if g.ov != nil && l != "" {
		return g.ov.nodesWithLabel(l)
	}
	return g.nodesByLabel[l]
}

// EdgesWithLabel returns live edge IDs labelled l, ascending, as
// NodesWithLabel does nodes.
func (g *Graph) EdgesWithLabel(l string) []EdgeID {
	if g.ov != nil && l != "" {
		return g.ov.edgesWithLabel(l)
	}
	return g.edgesByLabel[l]
}

// NodeLabel implements λ for nodes; returns "" when unlabelled.
//
//pathalgebra:hotpath
func (g *Graph) NodeLabel(id NodeID) string {
	if g.ov != nil {
		return g.ov.nodeLabel(id)
	}
	return g.nodeLabels[g.nodeLabel[id]]
}

// EdgeLabel implements λ for edges; returns "" when unlabelled.
//
//pathalgebra:hotpath
func (g *Graph) EdgeLabel(id EdgeID) string {
	if g.ov != nil {
		return g.ov.edgeLabel(id)
	}
	return g.symbols[g.edgeSym[id]]
}

// NodeProp implements ν for nodes; returns Null when undefined.
//
//pathalgebra:hotpath
func (g *Graph) NodeProp(id NodeID, prop string) Value {
	if g.ov != nil {
		return g.ov.nodeProp(id, prop)
	}
	return g.nodeProps.get(uint32(id), prop)
}

// EdgeProp implements ν for edges; returns Null when undefined.
//
//pathalgebra:hotpath
func (g *Graph) EdgeProp(id EdgeID, prop string) Value {
	if g.ov != nil {
		return g.ov.edgeProp(id, prop)
	}
	return g.edgeProps.get(uint32(id), prop)
}

// Endpoints implements ρ: it reads two node-ID columns, or an appended
// edge's row on a delta view. A search reads an edge's far end from its
// Adjacency instead.
//
//pathalgebra:hotpath
func (g *Graph) Endpoints(id EdgeID) (src, dst NodeID) {
	if g.ov != nil {
		return g.ov.endpoints(id)
	}
	return g.edgeSrc[id], g.edgeDst[id]
}

// Labels returns the sorted set of all labels used by live nodes and edges.
// A delta view reads the list of every label its base or an appended node
// names (an appended edge's label is one of the base's symbols) and keeps
// those with a live holder.
func (g *Graph) Labels() []string {
	b := g
	if g.ov != nil {
		b = g.ov.base
	}
	names := slices.Concat(b.nodeLabels, b.symbols)
	if g.ov != nil {
		for _, n := range g.ov.extraNodes {
			names = append(names, n.Label)
		}
	}
	slices.Sort(names)
	return slices.DeleteFunc(slices.Compact(names), func(l string) bool {
		return len(g.NodesWithLabel(l)) == 0 && len(g.EdgesWithLabel(l)) == 0
	})
}

// Builder accumulates nodes and edges and produces an immutable Graph. It
// writes every object straight into the columns the Graph keeps and
// retains none of the property maps it is given. The zero Builder is
// ready to use.
type Builder struct {
	nodeKeys, edgeKeys     keyBuilder
	nodeLabels, edgeLabels labelTable
	nodeLabel, edgeLabel   []uint32 // label IDs into the tables above
	edgeSrc, edgeDst       []NodeID
	nodeProps, edgeProps   propBuilder

	err error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// AddNode appends a node with the given external key, label and properties.
// Keys must be unique among nodes and edges combined (N ∩ E = ∅ in the
// paper). Errors are deferred to Build.
func (b *Builder) AddNode(key, label string, props map[string]Value) NodeID {
	if b.err == nil {
		if _, dup := b.nodeKeys.col.find(key); dup {
			b.err = fmt.Errorf("graph: duplicate node key %q: %w", key, ErrDuplicateKey)
		} else if _, dup := b.edgeKeys.col.find(key); dup {
			b.err = fmt.Errorf("graph: key %q used by both a node and an edge: %w", key, ErrDuplicateKey)
		}
	}
	id := NodeID(len(b.nodeLabel))
	b.nodeLabel = append(b.nodeLabel, b.nodeLabels.intern(label))
	b.note(b.nodeKeys.add(key))
	b.note(b.nodeProps.set(uint32(id), props))
	return id
}

// AddEdge appends a directed edge src→dst identified by key.
func (b *Builder) AddEdge(key, srcKey, dstKey, label string, props map[string]Value) EdgeID {
	src, okSrc := b.nodeKeys.col.find(srcKey)
	dst, okDst := b.nodeKeys.col.find(dstKey)
	if b.err == nil {
		switch {
		case !okSrc:
			b.err = fmt.Errorf("graph: edge %q references unknown source node %q: %w", key, srcKey, ErrUnknownNode)
		case !okDst:
			b.err = fmt.Errorf("graph: edge %q references unknown target node %q: %w", key, dstKey, ErrUnknownNode)
		}
		if _, dup := b.edgeKeys.col.find(key); dup {
			b.err = fmt.Errorf("graph: duplicate edge key %q: %w", key, ErrDuplicateKey)
		} else if _, dup := b.nodeKeys.col.find(key); dup {
			b.err = fmt.Errorf("graph: key %q used by both a node and an edge: %w", key, ErrDuplicateKey)
		}
	}
	id := EdgeID(len(b.edgeSrc))
	b.edgeSrc = append(b.edgeSrc, NodeID(src))
	b.edgeDst = append(b.edgeDst, NodeID(dst))
	b.edgeLabel = append(b.edgeLabel, b.edgeLabels.intern(label))
	b.note(b.edgeKeys.add(key))
	b.note(b.edgeProps.set(uint32(id), props))
	return id
}

// note records err as the Builder's error unless it already has one.
func (b *Builder) note(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first accumulated construction error, if any.
func (b *Builder) Err() error { return b.err }

// Build finalizes the graph, interning edge labels into the symbol table
// and computing the CSR adjacency and label indexes.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		edgeSrc:    b.edgeSrc,
		edgeDst:    b.edgeDst,
		nodeLabels: b.nodeLabels.names,
		nodeLabel:  b.nodeLabel,
		nodeKeys:   b.nodeKeys.seal(),
		edgeKeys:   b.edgeKeys.seal(),
		nodeProps:  b.nodeProps.seal(len(b.nodeLabel)),
		edgeProps:  b.edgeProps.seal(len(b.edgeSrc)),
	}
	g.buildSymbols(b.edgeLabels.names, b.edgeLabel)
	g.finish()
	return g, nil
}

// finish derives what a sealed graph holds beyond its source columns (ρ,
// λ with the edge symbols, ν and the keys): the symbol lookup, the label
// indexes, both CSR directions with their runs, and the statistics. Build
// and decodeColumns both end with it, so a graph recovered from a
// snapshot is derived exactly as a built one.
func (g *Graph) finish() {
	g.symbolOf = make(map[string]SymbolID, len(g.symbols))
	for i, l := range g.symbols {
		g.symbolOf[l] = SymbolID(i)
	}
	g.nodesByLabel = labelIndex[NodeID](g.nodeLabels, g.nodeLabel)
	g.edgesByLabel = labelIndex[EdgeID](g.symbols, g.edgeSym)
	symOrder := g.edgesBySymbol()
	g.outOff, g.outData, g.outNbr, g.outRunOff, g.outRuns = g.buildCSR(symOrder, g.edgeSrc, g.edgeDst)
	g.inOff, g.inData, g.inNbr, g.inRunOff, g.inRuns = g.buildCSR(symOrder, g.edgeDst, g.edgeSrc)
	g.buildStats()
}

// labelIndex returns, per non-empty label, the IDs of the objects that
// carry it, ascending; label[i] indexes names.
func labelIndex[ID NodeID | EdgeID, L uint32 | SymbolID](names []string, label []L) map[string][]ID {
	counts := make([]int, len(names))
	for _, l := range label {
		counts[l]++
	}
	lists := make([][]ID, len(names))
	out := make(map[string][]ID)
	for l, name := range names {
		if name != "" && counts[l] > 0 {
			lists[l] = make([]ID, 0, counts[l])
		}
	}
	for i, l := range label {
		if lists[l] != nil {
			lists[l] = append(lists[l], ID(i))
		}
	}
	for l, ids := range lists {
		if ids != nil {
			out[names[l]] = ids
		}
	}
	return out
}

// buildSymbols interns the distinct edge labels (including "" for
// unlabelled edges, since λ is partial) in lexicographic order; labels and
// label are the Builder's first-seen interning of them.
func (g *Graph) buildSymbols(labels []string, label []uint32) {
	g.symbols = append([]string(nil), labels...)
	sort.Strings(g.symbols)
	remap := make([]SymbolID, len(labels))
	for i, l := range labels {
		remap[i] = SymbolID(sort.SearchStrings(g.symbols, l))
	}
	g.edgeSym = make([]SymbolID, len(label))
	for i, l := range label {
		g.edgeSym[i] = remap[l]
	}
}

// edgesBySymbol returns every edge ID ordered by (label symbol, ID) — the
// symbol-major traversal both CSR builds consume. Counting sort, O(E+S).
func (g *Graph) edgesBySymbol() []EdgeID {
	counts := make([]int32, len(g.symbols)+1)
	for _, s := range g.edgeSym {
		counts[s+1]++
	}
	for i := 0; i < len(g.symbols); i++ {
		counts[i+1] += counts[i]
	}
	out := make([]EdgeID, len(g.edgeSym))
	for i, s := range g.edgeSym { // ascending ID keeps the ID-minor order stable
		out[counts[s]] = EdgeID(i)
		counts[s]++
	}
	return out
}

// buildCSR flattens one adjacency direction into offset, data and
// neighbour arrays, each node's range keyed by end[e] and partitioned into
// label-homogeneous runs: edges sort by (endpoint node, label symbol, edge
// ID), and nbr holds other[e] beside each edge. Traversing the edges in
// symbol-major order (symOrder) while appending at per-node cursors yields
// each node's range already in (symbol, ID) order, so the whole build is
// O(V+E+S) time and O(V) extra memory regardless of label cardinality.
func (g *Graph) buildCSR(symOrder []EdgeID, end, other []NodeID) (off []int32, data []EdgeID, nbr []NodeID, runOff []int32, runs []SymbolRun) {
	n := len(g.nodeLabel)
	off = make([]int32, n+1)
	for _, v := range end {
		off[v+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	data = make([]EdgeID, len(end))
	nbr = make([]NodeID, len(end))
	cursor := make([]int32, n)
	for _, e := range symOrder {
		v := end[e]
		data[off[v]+cursor[v]] = e
		nbr[off[v]+cursor[v]] = other[e]
		cursor[v]++
	}
	// Count each node's runs, then scan its range into them.
	runOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		runOff[v+1] = runOff[v]
		for i := off[v]; i < off[v+1]; i++ {
			if i == off[v] || g.edgeSym[data[i]] != g.edgeSym[data[i-1]] {
				runOff[v+1]++
			}
		}
	}
	runs = make([]SymbolRun, 0, runOff[n])
	for v := 0; v < n; v++ {
		base, lo := off[v], off[v]
		for lo < off[v+1] {
			sym := g.edgeSym[data[lo]]
			hi := lo + 1
			for hi < off[v+1] && g.edgeSym[data[hi]] == sym {
				hi++
			}
			runs = append(runs, SymbolRun{Sym: sym, Lo: lo - base, Hi: hi - base})
			lo = hi
		}
	}
	return off, data, nbr, runOff, runs
}

// MustBuild is Build for tests and fixtures; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Props is a convenience constructor for property maps in fixtures:
// graph.Props("name", graph.StringValue("Moe")).
// It panics on an odd number of arguments or a non-string key.
func Props(kv ...any) map[string]Value {
	if len(kv)%2 != 0 {
		panic("graph.Props: odd number of arguments")
	}
	m := make(map[string]Value, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			panic(fmt.Sprintf("graph.Props: key %v is not a string", kv[i]))
		}
		switch v := kv[i+1].(type) {
		case Value:
			m[k] = v
		case string:
			m[k] = StringValue(v)
		case int:
			m[k] = IntValue(int64(v))
		case int64:
			m[k] = IntValue(v)
		case float64:
			m[k] = FloatValue(v)
		case bool:
			m[k] = BoolValue(v)
		default:
			panic(fmt.Sprintf("graph.Props: unsupported value type %T", kv[i+1]))
		}
	}
	return m
}
