package graph

import (
	"math"
	"sort"
)

// overlay is the immutable delta layer a Store lays over a sealed CSR
// epoch: appended nodes and edges (dense IDs continuing after the base),
// tombstone sets, and per-node adjacency patches that fully materialize
// the live (symbol, edge ID)-ordered adjacency of every node the delta
// touches. Untouched nodes keep reading the base CSR, so overlay reads
// cost one map probe more than sealed reads and patched reads stay in the
// exact order the sealed CSR would produce after a rebuild — the property
// the byte-identical differential gate rests on.
//
// An overlay is frozen once its epoch is published: Store.Apply builds
// the next epoch by cloning (copy-on-write; untouched slices are shared)
// and mutating the clone before anyone can observe it. The clone's
// patches and label lists are derived from the previous epoch's, which
// are already live and in order, and from the batch's own appended and
// killed objects, so an Apply costs the batch, the touched nodes'
// degrees and the touched labels' lists — never a pass over the base.
type overlay struct {
	base *Graph // sealed epoch, base.ov == nil

	// Appended objects, as rows; ID i >= base.NumNodes() lives at
	// extraNodes[i-base.NumNodes()], mirrored for edges and edge symbols.
	extraNodes   []Node
	extraEdges   []Edge
	extraEdgeSym []SymbolID

	// Tombstones, covering base and extra IDs alike.
	deadNodes map[NodeID]struct{}
	deadEdges map[EdgeID]struct{}

	// Fully materialized live adjacency of every node whose edge set the
	// delta changed (and of every appended or tombstoned node).
	outPatch map[NodeID]Adjacency
	inPatch  map[NodeID]Adjacency

	// Key-space patches: added* map keys introduced by deltas (possibly
	// reusing a tombstoned base key), dead* mark base keys tombstoned and
	// not re-added.
	addedNodeKeys map[string]NodeID
	addedEdgeKeys map[string]EdgeID
	deadNodeKeys  map[string]struct{}
	deadEdgeKeys  map[string]struct{}

	// Complete label indexes: shallow copies of the base maps with the
	// touched labels' slices replaced by freshly merged live ID lists.
	nodesByLabel map[string][]NodeID
	edgesByLabel map[string][]EdgeID

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
	if id, ok := ov.addedNodeKeys[key]; ok {
		return id, true
	}
	if _, dead := ov.deadNodeKeys[key]; dead {
		return 0, false
	}
	id, ok := ov.base.nodeKeys.find(key)
	return NodeID(id), ok
}

func (ov *overlay) edgeByKey(key string) (EdgeID, bool) {
	if id, ok := ov.addedEdgeKeys[key]; ok {
		return id, true
	}
	if _, dead := ov.deadEdgeKeys[key]; dead {
		return 0, false
	}
	id, ok := ov.base.edgeKeys.find(key)
	return EdgeID(id), ok
}

func (ov *overlay) nodesWithLabel(l string) []NodeID { return ov.nodesByLabel[l] }
func (ov *overlay) edgesWithLabel(l string) []EdgeID { return ov.edgesByLabel[l] }

func (ov *overlay) labelSets() (map[string][]NodeID, map[string][]EdgeID) {
	return ov.nodesByLabel, ov.edgesByLabel
}

// deltaSize reports how many delta records the overlay carries — the
// compaction trigger metric: appended objects plus tombstones.
func (ov *overlay) deltaSize() int {
	return len(ov.extraNodes) + len(ov.extraEdges) + len(ov.deadNodes) + len(ov.deadEdges)
}

// clone returns a mutable deep copy sharing every untouched slice with
// the receiver. Map copies are O(delta), bounded by the compaction
// threshold; label maps are O(labels) of slice headers.
func (ov *overlay) clone() *overlay {
	cp := &overlay{
		base:          ov.base,
		extraNodes:    ov.extraNodes[:len(ov.extraNodes):len(ov.extraNodes)],
		extraEdges:    ov.extraEdges[:len(ov.extraEdges):len(ov.extraEdges)],
		extraEdgeSym:  ov.extraEdgeSym[:len(ov.extraEdgeSym):len(ov.extraEdgeSym)],
		deadNodes:     make(map[NodeID]struct{}, len(ov.deadNodes)),
		deadEdges:     make(map[EdgeID]struct{}, len(ov.deadEdges)),
		outPatch:      make(map[NodeID]Adjacency, len(ov.outPatch)),
		inPatch:       make(map[NodeID]Adjacency, len(ov.inPatch)),
		addedNodeKeys: make(map[string]NodeID, len(ov.addedNodeKeys)),
		addedEdgeKeys: make(map[string]EdgeID, len(ov.addedEdgeKeys)),
		deadNodeKeys:  make(map[string]struct{}, len(ov.deadNodeKeys)),
		deadEdgeKeys:  make(map[string]struct{}, len(ov.deadEdgeKeys)),
		nodesByLabel:  make(map[string][]NodeID, len(ov.nodesByLabel)),
		edgesByLabel:  make(map[string][]EdgeID, len(ov.edgesByLabel)),
		liveNodes:     ov.liveNodes,
		liveEdges:     ov.liveEdges,
	}
	for k, v := range ov.deadNodes {
		cp.deadNodes[k] = v
	}
	for k, v := range ov.deadEdges {
		cp.deadEdges[k] = v
	}
	for k, v := range ov.outPatch {
		cp.outPatch[k] = v
	}
	for k, v := range ov.inPatch {
		cp.inPatch[k] = v
	}
	for k, v := range ov.addedNodeKeys {
		cp.addedNodeKeys[k] = v
	}
	for k, v := range ov.addedEdgeKeys {
		cp.addedEdgeKeys[k] = v
	}
	for k, v := range ov.deadNodeKeys {
		cp.deadNodeKeys[k] = v
	}
	for k, v := range ov.deadEdgeKeys {
		cp.deadEdgeKeys[k] = v
	}
	for k, v := range ov.nodesByLabel {
		cp.nodesByLabel[k] = v
	}
	for k, v := range ov.edgesByLabel {
		cp.edgesByLabel[k] = v
	}
	return cp
}

// emptyOverlay wraps a sealed graph in a zero-delta overlay — the
// starting point Store.Apply clones from on the first batch after a
// (re)seal.
func emptyOverlay(base *Graph) *overlay {
	return &overlay{
		base:          base,
		deadNodes:     map[NodeID]struct{}{},
		deadEdges:     map[EdgeID]struct{}{},
		outPatch:      map[NodeID]Adjacency{},
		inPatch:       map[NodeID]Adjacency{},
		addedNodeKeys: map[string]NodeID{},
		addedEdgeKeys: map[string]EdgeID{},
		deadNodeKeys:  map[string]struct{}{},
		deadEdgeKeys:  map[string]struct{}{},
		nodesByLabel:  base.nodesByLabel,
		edgesByLabel:  base.edgesByLabel,
		liveNodes:     base.NumNodes(),
		liveEdges:     base.NumEdges(),
	}
}

// adjRec is one adjacency slot a batch adds or drops: the edge, its
// symbol and the node at its other end.
type adjRec struct {
	sym SymbolID
	id  EdgeID
	nbr NodeID
}

// prevAdj returns node n's adjacency in one direction as the previous
// epoch published it: its patch, else its base CSR range, else (a node a
// batch appended) nothing. The clone still holds the previous patches
// until finalize replaces them.
func (ov *overlay) prevAdj(n NodeID, out bool) Adjacency {
	patch := ov.inPatch
	if out {
		patch = ov.outPatch
	}
	if adj, ok := patch[n]; ok || int(n) >= ov.base.NumNodes() {
		return adj
	}
	if out {
		return ov.base.outAdj(n)
	}
	return ov.base.inAdj(n)
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
// order. Both lists are in that order, and every added edge is newer than
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

// dropSorted returns prev, ascending, without the IDs of killed, which is
// ascending too and may hold IDs prev lacks, and with room for extra more
// IDs. Each killed ID is one binary search; the IDs between them are
// copied in blocks.
func dropSorted[ID NodeID | EdgeID](prev, killed []ID, extra int) []ID {
	out := make([]ID, 0, len(prev)+extra)
	i := 0
	for _, k := range killed {
		j := i + sort.Search(len(prev)-i, func(x int) bool { return prev[i+x] >= k })
		if j < len(prev) && prev[j] == k {
			out = append(out, prev[i:j]...)
			i = j + 1
		}
	}
	return append(out, prev[i:]...)
}

// patchNodeLabel sets the live ID list of node label l from the previous
// epoch's, which is live and ascending: the batch's killed IDs dropped,
// then the live nodes of label l the batch appended, whose IDs follow
// every earlier one. It costs one copy of the list, no map probe per ID.
// Called once per touched label per batch.
func (ov *overlay) patchNodeLabel(l string, eff *effects) {
	added := ov.extraNodes[eff.startNodes:]
	ids := dropSorted(ov.nodesByLabel[l], eff.killedNodes, len(added))
	for i := range added {
		n := &added[i]
		if n.Label != l {
			continue
		}
		if _, dead := ov.deadNodes[n.ID]; !dead {
			ids = append(ids, n.ID)
		}
	}
	if len(ids) == 0 {
		delete(ov.nodesByLabel, l)
	} else {
		ov.nodesByLabel[l] = ids
	}
}

// patchEdgeLabel is patchNodeLabel for edge label l.
func (ov *overlay) patchEdgeLabel(l string, eff *effects) {
	added := ov.extraEdges[eff.startEdges:]
	ids := dropSorted(ov.edgesByLabel[l], eff.killedEdges, len(added))
	for i := range added {
		e := &added[i]
		if e.Label != l {
			continue
		}
		if _, dead := ov.deadEdges[e.ID]; !dead {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		delete(ov.edgesByLabel, l)
	} else {
		ov.edgesByLabel[l] = ids
	}
}
