package graph

import (
	"math"
	"sort"
)

// overlay is the immutable delta layer a Store lays over a sealed CSR
// epoch: appended nodes and edges (dense IDs continuing after the base),
// tombstones, and per-node adjacency patches that fully materialize the
// live (symbol, edge ID)-ordered adjacency of every node whose edge set
// the delta changed. Other nodes keep reading the base CSR, so overlay reads
// cost one table walk more than sealed reads and patched reads stay in
// the exact order the sealed CSR would produce after a rebuild — the
// property the byte-identical differential gate rests on.
//
// An overlay is frozen once its epoch is published. Store.Apply builds
// the next epoch on a shallow copy (successor): the appended rows and
// the patch chunks grow past the lengths older epochs read, and the
// per-ID state — tombstones, which patch a node reads, the appended
// keys' index — sits in copy-on-write tables (cow.go) whose leaves a
// batch copies only where it writes. A batch records its adjacency
// changes once, as one list of slots to drop and to add, sorted by node
// and direction; each node in it gets a new patch derived from its
// previous adjacency, which is already live and in order, so an Apply
// costs the batch and the changed nodes' degrees — never the delta
// before it, and never a pass over the base.
//
// An overlay keeps no posting lists. A label's objects and a property
// value's holders are read off the base's list, the tombstones and the
// appended rows when asked for (livePostings), so a batch writes no list.
type overlay struct {
	base *Graph // sealed epoch, base.ov == nil
	gen  uint64 // the Apply building this overlay owns the table leaves it made

	// Appended objects, as rows; ID i >= base.NumNodes() lives at
	// extraNodes[i-base.NumNodes()], mirrored for edges and edge symbols.
	extraNodes   []Node
	extraEdges   []Edge
	extraEdgeSym []SymbolID

	// Tombstones, covering base and extra IDs alike. A base key is dead
	// when its base ID is, unless an appended object took it again.
	deadNodes, deadEdges bitTable

	// The appended objects' keys, killed ones included.
	nodeKeys, edgeKeys keyIndex

	// The live adjacency of every node whose edge set the delta changed
	// (and of every appended node), in each direction:
	// outPatch and inPatch cover every node ID and point into chunks of
	// 256 patches that never move. patches is the last chunk, which a
	// batch appends past the length earlier epochs hold.
	patches           []Adjacency
	outPatch, inPatch cowTable[*Adjacency]

	liveNodes int
	liveEdges int
}

// graph returns the delta view of ov. It shares the base's CSR arrays,
// which OutRuns and InRuns read for every node the delta did not patch.
func (ov *overlay) graph() *Graph {
	b := ov.base
	return &Graph{ov: ov,
		outOff: b.outOff, outData: b.outData, outNbr: b.outNbr, outRunOff: b.outRunOff, outRuns: b.outRuns,
		inOff: b.inOff, inData: b.inData, inNbr: b.inNbr, inRunOff: b.inRunOff, inRuns: b.inRuns,
	}
}

// extraNode returns node id's row when a batch appended it, nil for a
// base ID; extraEdge is the same for edges.
func (ov *overlay) extraNode(id NodeID) *Node {
	if i := int(id) - ov.base.NumNodes(); i >= 0 {
		return &ov.extraNodes[i]
	}
	return nil
}

func (ov *overlay) extraEdge(id EdgeID) *Edge {
	if i := int(id) - ov.base.NumEdges(); i >= 0 {
		return &ov.extraEdges[i]
	}
	return nil
}

func (ov *overlay) nodeDead(id NodeID) bool { return ov.deadNodes.has(uint32(id)) }
func (ov *overlay) edgeDead(id EdgeID) bool { return ov.deadEdges.has(uint32(id)) }

// The delta view's halves of the Graph accessors: an appended object's
// row, else the base's columns.

func (ov *overlay) nodeKey(id NodeID) string {
	if n := ov.extraNode(id); n != nil {
		return n.Key
	}
	return ov.base.NodeKey(id)
}

func (ov *overlay) edgeKey(id EdgeID) string {
	if e := ov.extraEdge(id); e != nil {
		return e.Key
	}
	return ov.base.EdgeKey(id)
}

func (ov *overlay) nodeLabel(id NodeID) string {
	if n := ov.extraNode(id); n != nil {
		return n.Label
	}
	return ov.base.NodeLabel(id)
}

func (ov *overlay) edgeLabel(id EdgeID) string {
	if e := ov.extraEdge(id); e != nil {
		return e.Label
	}
	return ov.base.EdgeLabel(id)
}

func (ov *overlay) nodeProp(id NodeID, prop string) Value {
	if n := ov.extraNode(id); n != nil {
		return n.Props[prop]
	}
	return ov.base.NodeProp(id, prop)
}

func (ov *overlay) edgeProp(id EdgeID, prop string) Value {
	if e := ov.extraEdge(id); e != nil {
		return e.Props[prop]
	}
	return ov.base.EdgeProp(id, prop)
}

func (ov *overlay) endpoints(id EdgeID) (src, dst NodeID) {
	if e := ov.extraEdge(id); e != nil {
		return e.Src, e.Dst
	}
	return ov.base.Endpoints(id)
}

func (ov *overlay) nodeByKey(key string) (NodeID, bool) {
	id, ok := ov.nodeKeys.find(key, &ov.base.nodeKeys, &ov.deadNodes, func(id uint32) string { return ov.nodeKey(NodeID(id)) })
	return NodeID(id), ok
}

func (ov *overlay) edgeByKey(key string) (EdgeID, bool) {
	id, ok := ov.edgeKeys.find(key, &ov.base.edgeKeys, &ov.deadEdges, func(id uint32) string { return ov.edgeKey(EdgeID(id)) })
	return EdgeID(id), ok
}

// nodesWithLabel and edgesWithLabel answer a delta view's label index by
// the posting rule (livePostings), for l != "".
func (ov *overlay) nodesWithLabel(l string) []NodeID {
	dead, _ := ov.deadCounts()
	return livePostings(ov.base.NodesWithLabel(l), &ov.deadNodes, dead, NodeID(ov.base.NumNodes()), len(ov.extraNodes),
		func(i int) bool { return ov.extraNodes[i].Label == l })
}

func (ov *overlay) edgesWithLabel(l string) []EdgeID {
	_, dead := ov.deadCounts()
	return livePostings(ov.base.EdgesWithLabel(l), &ov.deadEdges, dead, EdgeID(ov.base.NumEdges()), len(ov.extraEdges),
		func(i int) bool { return ov.extraEdges[i].Label == l })
}

// livePostings is a delta view's one rule for a posting list, a label's
// objects or a property value's holders: base, the sealed base's list,
// ascending, without its tombstoned IDs (read only when some ID is dead),
// then every live appended object i, whose ID is first+i, of which has(i)
// holds; a tombstone word whose 64 IDs are all dead is skipped whole.
// Appended IDs follow every base ID, so the list stays ascending. With
// nothing to drop or add it is base itself; do not modify it.
func livePostings[ID NodeID | EdgeID](base []ID, dead *bitTable, deadCount int, first ID, appended int, has func(i int) bool) []ID {
	out := base[:len(base):len(base)] // an append copies base
	if deadCount > 0 {
		out = nil
		for _, id := range base {
			if !dead.has(uint32(id)) {
				out = append(out, id)
			}
		}
	}
	for i := 0; i < appended; i++ {
		id := first + ID(i)
		if w := dead.words.get(uint32(id) / 64); w == ^uint64(0) {
			i += 63 - int(id%64)
		} else if w&(1<<(id%64)) == 0 && has(i) {
			out = append(out, id)
		}
	}
	return out
}

// deadCounts returns how many node and edge IDs are tombstoned.
func (ov *overlay) deadCounts() (nodes, edges int) {
	return ov.base.NumNodes() + len(ov.extraNodes) - ov.liveNodes,
		ov.base.NumEdges() + len(ov.extraEdges) - ov.liveEdges
}

// deltaSize reports how many delta records the overlay carries — the
// compaction trigger metric: appended objects plus tombstones.
func (ov *overlay) deltaSize() int {
	nodes, edges := ov.deadCounts()
	return len(ov.extraNodes) + len(ov.extraEdges) + nodes + edges
}

// successor returns the overlay the next batch writes: a shallow copy of
// the receiver under the next generation, so that its first write to a
// table leaf shared with the receiver copies the leaf. Slices appended to
// write past the receiver's lengths, which its readers never read.
func (ov *overlay) successor() *overlay {
	cp := *ov
	cp.gen++
	return &cp
}

// emptyOverlay wraps a sealed graph in a zero-delta overlay — the
// starting point Store.Apply builds on for the first batch after a
// (re)seal.
func emptyOverlay(base *Graph) *overlay {
	ov := &overlay{
		base:      base,
		liveNodes: base.NumNodes(),
		liveEdges: base.NumEdges(),
	}
	ov.outPatch.cover(uint32(base.NumNodes()), 0)
	ov.inPatch.cover(uint32(base.NumNodes()), 0)
	return ov
}

// adjRec is one adjacency slot a batch adds or drops: the node whose
// adjacency holds it and in which direction, whether the batch adds it,
// the edge, its symbol and the node at its other end.
type adjRec struct {
	node     NodeID
	out, add bool
	sym      SymbolID
	id       EdgeID
	nbr      NodeID
}

// adjacency returns node n's live adjacency in one direction: its
// patch, else its base CSR range. While a batch is applied its overlay
// still holds the previous epoch's patches, until finalize replaces them.
func (ov *overlay) adjacency(n NodeID, out bool) Adjacency {
	patch := &ov.inPatch
	if out {
		patch = &ov.outPatch
	}
	if p := patch.get(uint32(n)); p != nil {
		return *p
	}
	if out {
		return ov.base.outAdj(n)
	}
	return ov.base.inAdj(n)
}

// noEdges is the adjacency of a node appended without edges.
var noEdges Adjacency

// setPatch publishes adj as node n's adjacency in patch.
func (ov *overlay) setPatch(patch *cowTable[*Adjacency], n NodeID, adj Adjacency) {
	if len(ov.patches) == cap(ov.patches) {
		ov.patches = make([]Adjacency, 0, 256)
	}
	ov.patches = append(ov.patches, adj)
	*patch.ref(uint32(n), ov.gen) = &ov.patches[len(ov.patches)-1]
}

// edgeSym returns edge id's symbol: the base's column, or the symbol an
// appended edge was given (NoSymbol for a label the base lacks).
func (ov *overlay) edgeSym(id EdgeID) SymbolID {
	if i := int(id) - ov.base.NumEdges(); i >= 0 {
		return ov.extraEdgeSym[i]
	}
	return ov.base.edgeSym[id]
}

// patchAdj returns a node's live adjacency in one direction from prev,
// its adjacency at the previous epoch: without the slots in drop, which
// prev holds, and with the slots in add merged in, in (symbol, edge ID)
// order: drop and add are one node's group of finalize's sorted slots.
// Both lists are in that order, and every added edge is newer than
// every edge of prev, so it follows prev's edges of its symbol. The cost
// is the node's degree plus the batch's slots, with no map probe.
func patchAdj(prev Adjacency, drop, add []adjRec) Adjacency {
	size := len(prev.Edges) - len(drop) + len(add)
	adj := Adjacency{Edges: make([]EdgeID, 0, size), Nbrs: make([]NodeID, 0, size)}
	a := 0
	// appendAdds appends the added slots of symbol sym.
	appendAdds := func(sym SymbolID) {
		for ; a < len(add) && add[a].sym == sym; a++ {
			adj.Edges = append(adj.Edges, add[a].id)
			adj.Nbrs = append(adj.Nbrs, add[a].nbr)
		}
	}
	// addsBelow gives each added symbol below sym a run of its own.
	addsBelow := func(sym SymbolID) {
		for a < len(add) && add[a].sym < sym {
			lo, s := len(adj.Edges), add[a].sym
			appendAdds(s)
			adj.Runs = append(adj.Runs, SymbolRun{Sym: s, Lo: int32(lo), Hi: int32(len(adj.Edges))})
		}
	}
	d := 0
	for _, r := range prev.Runs {
		addsBelow(r.Sym)
		lo, i := len(adj.Edges), int(r.Lo)
		for ; d < len(drop) && drop[d].sym == r.Sym; d++ {
			run := prev.Edges[i:r.Hi]
			j := i + sort.Search(len(run), func(k int) bool { return run[k] >= drop[d].id })
			adj.Edges = append(adj.Edges, prev.Edges[i:j]...)
			adj.Nbrs = append(adj.Nbrs, prev.Nbrs[i:j]...)
			i = j + 1
		}
		adj.Edges = append(adj.Edges, prev.Edges[i:r.Hi]...)
		adj.Nbrs = append(adj.Nbrs, prev.Nbrs[i:r.Hi]...)
		appendAdds(r.Sym)
		if len(adj.Edges) > lo {
			adj.Runs = append(adj.Runs, SymbolRun{Sym: r.Sym, Lo: int32(lo), Hi: int32(len(adj.Edges))})
		}
	}
	addsBelow(math.MaxInt32)
	return adj
}
