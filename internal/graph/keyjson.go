package graph

import (
	"encoding/json"
	"fmt"
	"math"
)

// Every key of a sealed graph is rendered once, at Build, as the JSON
// string encoding/json writes for it — quotes, HTML escapes, \ufffd for
// invalid UTF-8, \u2028/\u2029 — into one pointer-free byte slab, nodes
// by ID and then edges by ID, with one uint32 offset array per kind.
// Writers of keys (the server's page encoder) copy a rendering instead
// of scanning the key for escapes on every line. A delta view reads its
// base's slab for base IDs and renders its few appended objects on each
// call; compaction goes through Build and renders afresh.
//
// The slab costs the keys' bytes plus two quotes and four offset bytes
// per object, and Build one more scan of every key.

// renderKeys fills g's key slab and offsets from its raw key columns.
func (g *Graph) renderKeys() error {
	nodes, edges := g.NumNodes(), g.NumEdges()
	slab := make([]byte, 0, 2*(nodes+edges)+len(g.nodeKeys.text)+len(g.edgeKeys.text))
	g.nodeKeyOff = make([]uint32, nodes+1)
	for i := 0; i < nodes; i++ {
		slab = appendKeyJSON(slab, g.nodeKeys.key(uint32(i)))
		g.nodeKeyOff[i+1] = uint32(len(slab))
	}
	g.edgeKeyOff = make([]uint32, edges+1)
	g.edgeKeyOff[0] = uint32(len(slab))
	for i := 0; i < edges; i++ {
		slab = appendKeyJSON(slab, g.edgeKeys.key(uint32(i)))
		g.edgeKeyOff[i+1] = uint32(len(slab))
	}
	if uint64(len(slab)) > math.MaxUint32 {
		return fmt.Errorf("graph: rendered keys take %d bytes, more than the 4 GiB the key offsets address", len(slab))
	}
	g.keySlab = slab
	return nil
}

// AppendNodeKeyJSON appends node id's key as a JSON string, byte-identical
// to json.Marshal(g.Node(id).Key).
//
//pathalgebra:hotpath
func (g *Graph) AppendNodeKeyJSON(buf []byte, id NodeID) []byte {
	s := g
	if g.ov != nil {
		if o := g.ov.extraNode(id); o != nil {
			return appendKeyJSON(buf, o.Key)
		}
		s = g.ov.base
	}
	return append(buf, s.keySlab[s.nodeKeyOff[id]:s.nodeKeyOff[id+1]]...)
}

// AppendEdgeKeyJSON is AppendNodeKeyJSON for edges.
//
//pathalgebra:hotpath
func (g *Graph) AppendEdgeKeyJSON(buf []byte, id EdgeID) []byte {
	s := g
	if g.ov != nil {
		if o := g.ov.extraEdge(id); o != nil {
			return appendKeyJSON(buf, o.Key)
		}
		s = g.ov.base
	}
	return append(buf, s.keySlab[s.edgeKeyOff[id]:s.edgeKeyOff[id+1]]...)
}

// appendKeyJSON appends key as a JSON string. A key of printable ASCII
// that encoding/json leaves alone is copied between quotes; anything else
// is rendered by encoding/json itself.
//
//pathalgebra:hotpath
func appendKeyJSON(buf []byte, key string) []byte {
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return appendMarshalledKey(buf, key)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, key...)
	return append(buf, '"')
}

// appendMarshalledKey appends json.Marshal(key): HTML escapes, control
// characters, invalid UTF-8 as \ufffd and the \u2028/\u2029 escapes.
func appendMarshalledKey(buf []byte, key string) []byte {
	b, _ := json.Marshal(key) // a string always marshals
	return append(buf, b...)
}
