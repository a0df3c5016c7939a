// Package graph implements the property graph data model of Definition 2.1
// in "Path-based Algebraic Foundations of Graph Query Languages"
// (Angles, Bonifati, García, Vrgoč — EDBT 2025).
//
// A property graph is a tuple G = (N, E, ρ, λ, ν): finite sets of node and
// edge identifiers, a total endpoint function ρ : E → N×N, a partial label
// function λ and a partial property function ν. Here nodes and edges are
// stored in dense slices indexed by NodeID / EdgeID, which keeps path
// values compact and all per-object lookups O(1). Build also renders
// every external key once as a JSON string into one pointer-free slab
// (keyjson.go), which writers of path output copy from.
package graph

import (
	"fmt"
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

// SymbolRun is one label-homogeneous run of a node's CSR adjacency range:
// the edges with symbol Sym, ascending by edge ID. Edges aliases the CSR
// data array; do not modify.
type SymbolRun struct {
	Sym   SymbolID
	Edges []EdgeID
}

// Node is an entity of the graph. Label may be empty (λ is partial) and
// Props may be nil (ν is partial).
type Node struct {
	ID    NodeID
	Key   string // external, human-readable identifier (e.g. "n1")
	Label string
	Props map[string]Value
}

// Edge is a directed relationship between two nodes.
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
	nodes []Node
	edges []Edge

	nodeByKey map[string]NodeID
	edgeByKey map[string]EdgeID

	// Every key rendered once as a JSON string (keyjson.go): node n's
	// rendering is keySlab[nodeKeyOff[n]:nodeKeyOff[n+1]], edge e's
	// keySlab[edgeKeyOff[e]:edgeKeyOff[e+1]]. Pointer-free, so the GC
	// does not scan it; nil on a delta view, which reads its base's.
	keySlab                []byte
	nodeKeyOff, edgeKeyOff []uint32

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
	// symbol with zero string hashing or comparison.
	outOff, inOff       []int32     // node n's range: data[off[n]:off[n+1]]
	outData, inData     []EdgeID    // CSR data arrays
	outRunOff, inRunOff []int32     // node n's runs: runs[runOff[n]:runOff[n+1]]
	outRuns, inRuns     []SymbolRun // flat per-(node, symbol) run descriptors

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
		return len(g.ov.base.nodes) + len(g.ov.extraNodes)
	}
	return len(g.nodes)
}

// NumEdges returns the size of the edge ID space (see NumNodes).
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return len(g.ov.base.edges) + len(g.ov.extraEdges)
	}
	return len(g.edges)
}

// LiveNodes returns the number of live (non-tombstoned) nodes.
func (g *Graph) LiveNodes() int {
	if g.ov != nil {
		return g.ov.liveNodes
	}
	return len(g.nodes)
}

// LiveEdges returns the number of live edges.
func (g *Graph) LiveEdges() int {
	if g.ov != nil {
		return g.ov.liveEdges
	}
	return len(g.edges)
}

// NodeAlive reports whether id is a live node of this view — always true
// on a sealed graph, false for tombstoned IDs on a delta view. Evaluators
// iterating the dense ID space must skip dead IDs.
//
//pathalgebra:hotpath
func (g *Graph) NodeAlive(id NodeID) bool {
	if g.ov != nil {
		_, dead := g.ov.deadNodes[id]
		return !dead
	}
	return true
}

// EdgeAlive is NodeAlive for edges.
//
//pathalgebra:hotpath
func (g *Graph) EdgeAlive(id EdgeID) bool {
	if g.ov != nil {
		_, dead := g.ov.deadEdges[id]
		return !dead
	}
	return true
}

// Node returns the node with the given ID. It panics if id is out of
// range, which indicates a path from a different graph. Tombstoned IDs
// remain addressable (paths evaluated on this view never contain them).
func (g *Graph) Node(id NodeID) *Node {
	if g.ov != nil {
		return g.ov.node(id)
	}
	return &g.nodes[id]
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) *Edge {
	if g.ov != nil {
		return g.ov.edge(id)
	}
	return &g.edges[id]
}

// NodeByKey looks up a live node by its external key.
func (g *Graph) NodeByKey(key string) (*Node, bool) {
	if g.ov != nil {
		return g.ov.nodeByKey(key)
	}
	id, ok := g.nodeByKey[key]
	if !ok {
		return nil, false
	}
	return &g.nodes[id], true
}

// EdgeByKey looks up a live edge by its external key.
func (g *Graph) EdgeByKey(key string) (*Edge, bool) {
	if g.ov != nil {
		return g.ov.edgeByKey(key)
	}
	id, ok := g.edgeByKey[key]
	if !ok {
		return nil, false
	}
	return &g.edges[id], true
}

// Nodes returns all live nodes in ID order. On a sealed graph the slice
// is shared (do not modify); a delta view materializes a fresh slice.
func (g *Graph) Nodes() []Node {
	if g.ov != nil {
		return g.ov.liveNodeList()
	}
	return g.nodes
}

// Edges returns all live edges in ID order (see Nodes).
func (g *Graph) Edges() []Edge {
	if g.ov != nil {
		return g.ov.liveEdgeList()
	}
	return g.edges
}

// Out returns the IDs of live edges leaving n in the CSR order: ascending
// by (label symbol, edge ID). The slice aliases shared storage; do not
// modify.
//
//pathalgebra:hotpath
func (g *Graph) Out(n NodeID) []EdgeID {
	if g.ov != nil {
		return g.ov.out(n)
	}
	return g.outData[g.outOff[n]:g.outOff[n+1]]
}

// In returns the IDs of live edges entering n in (label symbol, edge ID)
// order.
//
//pathalgebra:hotpath
func (g *Graph) In(n NodeID) []EdgeID {
	if g.ov != nil {
		return g.ov.in(n)
	}
	return g.inData[g.inOff[n]:g.inOff[n+1]]
}

// OutRuns returns n's outgoing adjacency partitioned into label-homogeneous
// runs, symbols ascending. The slice is shared; do not modify.
//
//pathalgebra:hotpath
func (g *Graph) OutRuns(n NodeID) []SymbolRun {
	if g.ov != nil {
		return g.ov.outRuns(n)
	}
	return g.outRuns[g.outRunOff[n]:g.outRunOff[n+1]]
}

// InRuns returns n's incoming adjacency partitioned into label-homogeneous
// runs, symbols ascending.
//
//pathalgebra:hotpath
func (g *Graph) InRuns(n NodeID) []SymbolRun {
	if g.ov != nil {
		return g.ov.inRuns(n)
	}
	return g.inRuns[g.inRunOff[n]:g.inRunOff[n+1]]
}

// OutWithSymbol returns the edges leaving n whose label has the given
// symbol, ascending by edge ID — the product search's inner-loop lookup.
// It binary-searches n's runs (symbols are ascending), so the cost is
// O(log runs(n)) and no non-matching edge is ever touched.
//
//pathalgebra:hotpath
func (g *Graph) OutWithSymbol(n NodeID, sym SymbolID) []EdgeID {
	if g.ov != nil {
		return findRun(g.ov.outRuns(n), sym)
	}
	return findRun(g.outRuns[g.outRunOff[n]:g.outRunOff[n+1]], sym)
}

// InWithSymbol is OutWithSymbol for incoming edges.
//
//pathalgebra:hotpath
func (g *Graph) InWithSymbol(n NodeID, sym SymbolID) []EdgeID {
	if g.ov != nil {
		return findRun(g.ov.inRuns(n), sym)
	}
	return findRun(g.inRuns[g.inRunOff[n]:g.inRunOff[n+1]], sym)
}

//pathalgebra:hotpath
func findRun(runs []SymbolRun, sym SymbolID) []EdgeID {
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if runs[mid].Sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(runs) && runs[lo].Sym == sym {
		return runs[lo].Edges
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
		if sym, ok := g.ov.base.symbolOf[label]; ok {
			return sym
		}
		return NoSymbol
	}
	if sym, ok := g.symbolOf[label]; ok {
		return sym
	}
	return NoSymbol
}

// NodesWithLabel returns live node IDs labelled l, ascending.
func (g *Graph) NodesWithLabel(l string) []NodeID {
	if g.ov != nil {
		return g.ov.nodesWithLabel(l)
	}
	return g.nodesByLabel[l]
}

// EdgesWithLabel returns live edge IDs labelled l, ascending.
func (g *Graph) EdgesWithLabel(l string) []EdgeID {
	if g.ov != nil {
		return g.ov.edgesWithLabel(l)
	}
	return g.edgesByLabel[l]
}

// NodeLabel implements λ for nodes; returns "" when unlabelled.
func (g *Graph) NodeLabel(id NodeID) string {
	if g.ov != nil {
		return g.ov.node(id).Label
	}
	return g.nodes[id].Label
}

// EdgeLabel implements λ for edges; returns "" when unlabelled.
func (g *Graph) EdgeLabel(id EdgeID) string {
	if g.ov != nil {
		return g.ov.edge(id).Label
	}
	return g.edges[id].Label
}

// NodeProp implements ν for nodes; returns Null when undefined.
func (g *Graph) NodeProp(id NodeID, prop string) Value {
	if g.ov != nil {
		return g.ov.node(id).Props[prop]
	}
	return g.nodes[id].Props[prop]
}

// EdgeProp implements ν for edges; returns Null when undefined.
func (g *Graph) EdgeProp(id EdgeID, prop string) Value {
	if g.ov != nil {
		return g.ov.edge(id).Props[prop]
	}
	return g.edges[id].Props[prop]
}

// Endpoints implements ρ.
//
//pathalgebra:hotpath
func (g *Graph) Endpoints(id EdgeID) (src, dst NodeID) {
	if g.ov != nil {
		e := g.ov.edge(id)
		return e.Src, e.Dst
	}
	e := &g.edges[id]
	return e.Src, e.Dst
}

// Labels returns the sorted set of all labels used by live nodes and edges.
func (g *Graph) Labels() []string {
	nbl, ebl := g.nodesByLabel, g.edgesByLabel
	if g.ov != nil {
		nbl, ebl = g.ov.labelSets()
	}
	seen := make(map[string]bool, len(nbl)+len(ebl))
	for l := range nbl {
		seen[l] = true
	}
	for l := range ebl {
		seen[l] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero Builder is ready to use.
type Builder struct {
	nodes []Node
	edges []Edge

	nodeByKey map[string]NodeID
	edgeByKey map[string]EdgeID

	err error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		nodeByKey: make(map[string]NodeID),
		edgeByKey: make(map[string]EdgeID),
	}
}

// AddNode appends a node with the given external key, label and properties.
// Keys must be unique among nodes and edges combined (N ∩ E = ∅ in the
// paper). Errors are deferred to Build.
func (b *Builder) AddNode(key, label string, props map[string]Value) NodeID {
	if b.err == nil {
		if _, dup := b.nodeByKey[key]; dup {
			b.err = fmt.Errorf("graph: duplicate node key %q: %w", key, ErrDuplicateKey)
		} else if _, dup := b.edgeByKey[key]; dup {
			b.err = fmt.Errorf("graph: key %q used by both a node and an edge: %w", key, ErrDuplicateKey)
		}
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Key: key, Label: label, Props: cloneProps(props)})
	b.nodeByKey[key] = id
	return id
}

// AddEdge appends a directed edge src→dst identified by key.
func (b *Builder) AddEdge(key, srcKey, dstKey, label string, props map[string]Value) EdgeID {
	src, okSrc := b.nodeByKey[srcKey]
	dst, okDst := b.nodeByKey[dstKey]
	if b.err == nil {
		switch {
		case !okSrc:
			b.err = fmt.Errorf("graph: edge %q references unknown source node %q: %w", key, srcKey, ErrUnknownNode)
		case !okDst:
			b.err = fmt.Errorf("graph: edge %q references unknown target node %q: %w", key, dstKey, ErrUnknownNode)
		}
		if _, dup := b.edgeByKey[key]; dup {
			b.err = fmt.Errorf("graph: duplicate edge key %q: %w", key, ErrDuplicateKey)
		} else if _, dup := b.nodeByKey[key]; dup {
			b.err = fmt.Errorf("graph: key %q used by both a node and an edge: %w", key, ErrDuplicateKey)
		}
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{ID: id, Key: key, Src: src, Dst: dst, Label: label, Props: cloneProps(props)})
	b.edgeByKey[key] = id
	return id
}

// Err returns the first accumulated construction error, if any.
func (b *Builder) Err() error { return b.err }

// Build finalizes the graph, interning edge labels into the symbol table,
// computing the CSR adjacency and label indexes and rendering every key
// into the key slab.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		nodes:        b.nodes,
		edges:        b.edges,
		nodeByKey:    b.nodeByKey,
		edgeByKey:    b.edgeByKey,
		nodesByLabel: make(map[string][]NodeID),
		edgesByLabel: make(map[string][]EdgeID),
	}
	for i := range g.edges {
		e := &g.edges[i]
		if e.Label != "" {
			g.edgesByLabel[e.Label] = append(g.edgesByLabel[e.Label], e.ID)
		}
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.Label != "" {
			g.nodesByLabel[n.Label] = append(g.nodesByLabel[n.Label], n.ID)
		}
	}
	g.buildSymbols()
	symOrder := g.edgesBySymbol()
	g.outOff, g.outData, g.outRunOff, g.outRuns = g.buildCSR(symOrder, func(e *Edge) NodeID { return e.Src })
	g.inOff, g.inData, g.inRunOff, g.inRuns = g.buildCSR(symOrder, func(e *Edge) NodeID { return e.Dst })
	g.buildStats()
	if err := g.renderKeys(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildSymbols interns the distinct edge labels (including "" for
// unlabelled edges, since λ is partial) in lexicographic order.
func (g *Graph) buildSymbols() {
	seen := make(map[string]bool)
	for i := range g.edges {
		seen[g.edges[i].Label] = true
	}
	g.symbols = make([]string, 0, len(seen))
	for l := range seen {
		g.symbols = append(g.symbols, l)
	}
	sort.Strings(g.symbols)
	g.symbolOf = make(map[string]SymbolID, len(g.symbols))
	for i, l := range g.symbols {
		g.symbolOf[l] = SymbolID(i)
	}
	g.edgeSym = make([]SymbolID, len(g.edges))
	for i := range g.edges {
		g.edgeSym[i] = g.symbolOf[g.edges[i].Label]
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
	out := make([]EdgeID, len(g.edges))
	for i := range g.edges { // ascending ID keeps the ID-minor order stable
		s := g.edgeSym[i]
		out[counts[s]] = EdgeID(i)
		counts[s]++
	}
	return out
}

// buildCSR flattens one adjacency direction into offset+data arrays with
// each node's range partitioned into label-homogeneous runs: edges sort by
// (endpoint node, label symbol, edge ID). Traversing the edges in
// symbol-major order (symOrder) while appending at per-node cursors yields
// each node's range already in (symbol, ID) order, so the whole build is
// O(V+E+S) time and O(V) extra memory regardless of label cardinality.
func (g *Graph) buildCSR(symOrder []EdgeID, endpoint func(*Edge) NodeID) (off []int32, data []EdgeID, runOff []int32, runs []SymbolRun) {
	n := len(g.nodes)
	off = make([]int32, n+1)
	for i := range g.edges {
		off[endpoint(&g.edges[i])+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	data = make([]EdgeID, len(g.edges))
	cursor := make([]int32, n)
	for _, e := range symOrder {
		v := endpoint(&g.edges[e])
		data[off[v]+cursor[v]] = e
		cursor[v]++
	}
	// Scan each node's range into runs.
	runOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		runOff[v] = int32(len(runs))
		lo := off[v]
		for lo < off[v+1] {
			sym := g.edgeSym[data[lo]]
			hi := lo + 1
			for hi < off[v+1] && g.edgeSym[data[hi]] == sym {
				hi++
			}
			runs = append(runs, SymbolRun{Sym: sym, Edges: data[lo:hi:hi]})
			lo = hi
		}
	}
	runOff[n] = int32(len(runs))
	return off, data, runOff, runs
}

// MustBuild is Build for tests and fixtures; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func cloneProps(props map[string]Value) map[string]Value {
	if len(props) == 0 {
		return nil
	}
	out := make(map[string]Value, len(props))
	for k, v := range props {
		out[k] = v
	}
	return out
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
