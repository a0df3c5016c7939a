package graph

import "encoding/json"

// A key column stores each key between its quotes, and its clean bits
// mark the keys encoding/json writes unchanged, whose stored bytes
// therefore already are their JSON strings. Writers of keys (the server's
// page encoder) copy those; any other key is rendered by encoding/json on
// each call, as are the few keys a delta view appended.

// AppendNodeKeyJSON appends node id's key as a JSON string, byte-identical
// to json.Marshal(g.Node(id).Key).
//
//pathalgebra:hotpath
func (g *Graph) AppendNodeKeyJSON(buf []byte, id NodeID) []byte {
	c := &g.nodeKeys
	if g.ov != nil {
		if o := g.ov.extraNode(id); o != nil {
			return appendKeyJSON(buf, o.Key)
		}
		c = &g.ov.base.nodeKeys
	}
	if c.clean[id/64]&(1<<(id%64)) != 0 {
		return append(buf, c.text[c.off[id]:c.off[id+1]]...)
	}
	return appendMarshalledKey(buf, c.key(uint32(id)))
}

// AppendEdgeKeyJSON is AppendNodeKeyJSON for edges.
//
//pathalgebra:hotpath
func (g *Graph) AppendEdgeKeyJSON(buf []byte, id EdgeID) []byte {
	c := &g.edgeKeys
	if g.ov != nil {
		if o := g.ov.extraEdge(id); o != nil {
			return appendKeyJSON(buf, o.Key)
		}
		c = &g.ov.base.edgeKeys
	}
	if c.clean[id/64]&(1<<(id%64)) != 0 {
		return append(buf, c.text[c.off[id]:c.off[id+1]]...)
	}
	return appendMarshalledKey(buf, c.key(uint32(id)))
}

// jsonUnchanged reports whether encoding/json writes key as it is,
// between quotes: printable ASCII other than " \ < > &.
//
//pathalgebra:hotpath
func jsonUnchanged(key string) bool {
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendKeyJSON appends key as a JSON string, for a key no column holds.
//
//pathalgebra:hotpath
func appendKeyJSON(buf []byte, key string) []byte {
	if !jsonUnchanged(key) {
		return appendMarshalledKey(buf, key)
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
