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

	// Appended objects; ID i >= len(base.nodes) lives at
	// extraNodes[i-len(base.nodes)], mirrored for edges and edge symbols.
	extraNodes   []Node
	extraEdges   []Edge
	extraEdgeSym []SymbolID

	// Tombstones, covering base and extra IDs alike.
	deadNodes map[NodeID]struct{}
	deadEdges map[EdgeID]struct{}

	// Fully materialized live adjacency of every node whose edge set the
	// delta changed (and of every appended or tombstoned node).
	outPatch map[NodeID]nodeAdj
	inPatch  map[NodeID]nodeAdj

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

// nodeAdj is one patched node's live adjacency in CSR order: data holds
// the edge IDs ascending by (symbol, edge ID), runs partitions data into
// label-homogeneous runs with symbols ascending.
type nodeAdj struct {
	data []EdgeID
	runs []SymbolRun
}

func (ov *overlay) node(id NodeID) *Node {
	if int(id) < len(ov.base.nodes) {
		return &ov.base.nodes[id]
	}
	return &ov.extraNodes[int(id)-len(ov.base.nodes)]
}

func (ov *overlay) edge(id EdgeID) *Edge {
	if int(id) < len(ov.base.edges) {
		return &ov.base.edges[id]
	}
	return &ov.extraEdges[int(id)-len(ov.base.edges)]
}

func (ov *overlay) nodeByKey(key string) (*Node, bool) {
	if id, ok := ov.addedNodeKeys[key]; ok {
		return ov.node(id), true
	}
	if _, dead := ov.deadNodeKeys[key]; dead {
		return nil, false
	}
	if id, ok := ov.base.nodeByKey[key]; ok {
		return &ov.base.nodes[id], true
	}
	return nil, false
}

func (ov *overlay) edgeByKey(key string) (*Edge, bool) {
	if id, ok := ov.addedEdgeKeys[key]; ok {
		return ov.edge(id), true
	}
	if _, dead := ov.deadEdgeKeys[key]; dead {
		return nil, false
	}
	if id, ok := ov.base.edgeByKey[key]; ok {
		return &ov.base.edges[id], true
	}
	return nil, false
}

func (ov *overlay) out(n NodeID) []EdgeID {
	if adj, ok := ov.outPatch[n]; ok {
		return adj.data
	}
	if int(n) < len(ov.base.nodes) {
		g := ov.base
		return g.outData[g.outOff[n]:g.outOff[n+1]]
	}
	return nil
}

func (ov *overlay) in(n NodeID) []EdgeID {
	if adj, ok := ov.inPatch[n]; ok {
		return adj.data
	}
	if int(n) < len(ov.base.nodes) {
		g := ov.base
		return g.inData[g.inOff[n]:g.inOff[n+1]]
	}
	return nil
}

func (ov *overlay) outRuns(n NodeID) []SymbolRun {
	if adj, ok := ov.outPatch[n]; ok {
		return adj.runs
	}
	if int(n) < len(ov.base.nodes) {
		g := ov.base
		return g.outRuns[g.outRunOff[n]:g.outRunOff[n+1]]
	}
	return nil
}

func (ov *overlay) inRuns(n NodeID) []SymbolRun {
	if adj, ok := ov.inPatch[n]; ok {
		return adj.runs
	}
	if int(n) < len(ov.base.nodes) {
		g := ov.base
		return g.inRuns[g.inRunOff[n]:g.inRunOff[n+1]]
	}
	return nil
}

func (ov *overlay) nodesWithLabel(l string) []NodeID { return ov.nodesByLabel[l] }
func (ov *overlay) edgesWithLabel(l string) []EdgeID { return ov.edgesByLabel[l] }

func (ov *overlay) labelSets() (map[string][]NodeID, map[string][]EdgeID) {
	return ov.nodesByLabel, ov.edgesByLabel
}

// liveNodeList materializes the live nodes in ID order — a cold path used
// only by reporting and export, never by the evaluator.
func (ov *overlay) liveNodeList() []Node {
	out := make([]Node, 0, ov.liveNodes)
	for i := range ov.base.nodes {
		if _, dead := ov.deadNodes[NodeID(i)]; !dead {
			out = append(out, ov.base.nodes[i])
		}
	}
	for i := range ov.extraNodes {
		if _, dead := ov.deadNodes[ov.extraNodes[i].ID]; !dead {
			out = append(out, ov.extraNodes[i])
		}
	}
	return out
}

func (ov *overlay) liveEdgeList() []Edge {
	out := make([]Edge, 0, ov.liveEdges)
	for i := range ov.base.edges {
		if _, dead := ov.deadEdges[EdgeID(i)]; !dead {
			out = append(out, ov.base.edges[i])
		}
	}
	for i := range ov.extraEdges {
		if _, dead := ov.deadEdges[ov.extraEdges[i].ID]; !dead {
			out = append(out, ov.extraEdges[i])
		}
	}
	return out
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
		outPatch:      make(map[NodeID]nodeAdj, len(ov.outPatch)),
		inPatch:       make(map[NodeID]nodeAdj, len(ov.inPatch)),
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
		outPatch:      map[NodeID]nodeAdj{},
		inPatch:       map[NodeID]nodeAdj{},
		addedNodeKeys: map[string]NodeID{},
		addedEdgeKeys: map[string]EdgeID{},
		deadNodeKeys:  map[string]struct{}{},
		deadEdgeKeys:  map[string]struct{}{},
		nodesByLabel:  base.nodesByLabel,
		edgesByLabel:  base.edgesByLabel,
		liveNodes:     len(base.nodes),
		liveEdges:     len(base.edges),
	}
}

// rebuildAdj rematerializes node n's live adjacency for one direction
// after its edge set changed: the surviving base run edges minus
// tombstones, merged with the live extra edges incident to n, in
// (symbol, edge ID) order.
func (ov *overlay) rebuildAdj(n NodeID, out bool) nodeAdj {
	type rec struct {
		sym SymbolID
		id  EdgeID
	}
	var recs []rec
	// Surviving base edges.
	if int(n) < len(ov.base.nodes) {
		g := ov.base
		var runs []SymbolRun
		if out {
			runs = g.outRuns[g.outRunOff[n]:g.outRunOff[n+1]]
		} else {
			runs = g.inRuns[g.inRunOff[n]:g.inRunOff[n+1]]
		}
		for _, r := range runs {
			for _, e := range r.Edges {
				if _, dead := ov.deadEdges[e]; !dead {
					recs = append(recs, rec{r.Sym, e})
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
		var end NodeID
		if out {
			end = e.Src
		} else {
			end = e.Dst
		}
		if end == n {
			recs = append(recs, rec{ov.extraEdgeSym[i], e.ID})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].sym != recs[j].sym {
			return recs[i].sym < recs[j].sym
		}
		return recs[i].id < recs[j].id
	})
	adj := nodeAdj{data: make([]EdgeID, len(recs))}
	for i, r := range recs {
		adj.data[i] = r.id
	}
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].sym == recs[i].sym {
			j++
		}
		adj.runs = append(adj.runs, SymbolRun{Sym: recs[i].sym, Edges: adj.data[i:j]})
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
