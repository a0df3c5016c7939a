package graph

import "sort"

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
// and mutating the clone before anyone can observe it.
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

// rebuildAdj rematerializes node n's live adjacency for one direction
// after its edge set changed: the surviving base run edges minus
// tombstones, merged with the live extra edges incident to n, in
// (symbol, edge ID) order.
func (ov *overlay) rebuildAdj(n NodeID, out bool) Adjacency {
	type rec struct {
		sym SymbolID
		id  EdgeID
		nbr NodeID
	}
	var recs []rec
	// Surviving base edges.
	if int(n) < ov.base.NumNodes() {
		var adj Adjacency
		if out {
			adj = ov.base.outAdj(n)
		} else {
			adj = ov.base.inAdj(n)
		}
		for _, r := range adj.Runs {
			for i := r.Lo; i < r.Hi; i++ {
				if _, dead := ov.deadEdges[adj.Edges[i]]; !dead {
					recs = append(recs, rec{r.Sym, adj.Edges[i], adj.Nbrs[i]})
				}
			}
		}
	}
	// Live extra edges incident to n.
	for i := range ov.extraEdges {
		e := &ov.extraEdges[i]
		if _, dead := ov.deadEdges[e.ID]; dead {
			continue
		}
		end, nbr := e.Dst, e.Src
		if out {
			end, nbr = e.Src, e.Dst
		}
		if end == n {
			recs = append(recs, rec{ov.extraEdgeSym[i], e.ID, nbr})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].sym != recs[j].sym {
			return recs[i].sym < recs[j].sym
		}
		return recs[i].id < recs[j].id
	})
	adj := Adjacency{Edges: make([]EdgeID, len(recs)), Nbrs: make([]NodeID, len(recs))}
	for i, r := range recs {
		adj.Edges[i], adj.Nbrs[i] = r.id, r.nbr
	}
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].sym == recs[i].sym {
			j++
		}
		adj.Runs = append(adj.Runs, SymbolRun{Sym: recs[i].sym, Lo: int32(i), Hi: int32(j)})
		i = j
	}
	return adj
}

// patchLabelIndex recomputes the live ID list of one node label from
// scratch — O(live nodes of that label). Called once per touched label
// per batch.
func (ov *overlay) patchNodeLabel(l string) {
	var ids []NodeID
	for _, id := range ov.base.nodesByLabel[l] {
		if _, dead := ov.deadNodes[id]; !dead {
			ids = append(ids, id)
		}
	}
	for i := range ov.extraNodes {
		n := &ov.extraNodes[i]
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

func (ov *overlay) patchEdgeLabel(l string) {
	var ids []EdgeID
	for _, id := range ov.base.edgesByLabel[l] {
		if _, dead := ov.deadEdges[id]; !dead {
			ids = append(ids, id)
		}
	}
	for i := range ov.extraEdges {
		e := &ov.extraEdges[i]
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
