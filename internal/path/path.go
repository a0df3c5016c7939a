// Package path implements paths over property graphs as defined in §2.2 of
// the paper: a path is an alternating sequence of node and edge identifiers
// (n1, e1, n2, ..., ek, nk+1) with ρ(ei) = (ni, ni+1).
//
// Paths are immutable values. Concatenation (the ◦ operator) copies; all
// accessors are O(1). A path of length zero is a single node.
package path

import (
	"encoding/binary"
	"fmt"
	"strings"

	"pathalgebra/internal/graph"
)

// Path is an immutable walk through a graph. The zero Path is invalid;
// construct paths with FromNode, FromEdge or Concat.
//
// Invariant: len(nodes) == len(edges)+1 and len(nodes) >= 1, and fp is the
// incremental fingerprint of (nodes[0], edges...); see fingerprint.go.
type Path struct {
	nodes []graph.NodeID
	edges []graph.EdgeID
	fp    uint64
}

// FromNode returns the length-zero path (n).
func FromNode(n graph.NodeID) Path {
	return Path{nodes: []graph.NodeID{n}, fp: fpStart(uint64(n))}
}

// FromEdge returns the length-one path (src, e, dst).
func FromEdge(g *graph.Graph, e graph.EdgeID) Path {
	src, dst := g.Endpoints(e)
	return Path{
		nodes: []graph.NodeID{src, dst},
		edges: []graph.EdgeID{e},
		fp:    fpAppend(fpStart(uint64(src)), uint64(e)),
	}
}

// New builds a path from explicit node and edge sequences, validating the
// alternation invariant against the graph. It is mainly used by tests and
// loaders; hot paths use FromNode/FromEdge/Concat.
func New(g *graph.Graph, nodes []graph.NodeID, edges []graph.EdgeID) (Path, error) {
	if len(nodes) != len(edges)+1 || len(nodes) == 0 {
		return Path{}, fmt.Errorf("path: need k+1 nodes for k edges, got %d nodes, %d edges", len(nodes), len(edges))
	}
	for i, e := range edges {
		src, dst := g.Endpoints(e)
		if src != nodes[i] || dst != nodes[i+1] {
			return Path{}, fmt.Errorf("path: edge %d (%s) does not connect positions %d-%d", i, g.EdgeKey(e), i, i+1)
		}
	}
	fp := fpStart(uint64(nodes[0]))
	for _, e := range edges {
		fp = fpAppend(fp, uint64(e))
	}
	return Path{nodes: append([]graph.NodeID(nil), nodes...), edges: append([]graph.EdgeID(nil), edges...), fp: fp}, nil
}

// FromKeys builds a path from the external keys of its alternating
// node/edge sequence, e.g. FromKeys(g, "n1", "e1", "n2"). Fixture helper.
func FromKeys(g *graph.Graph, keys ...string) (Path, error) {
	if len(keys)%2 == 0 || len(keys) == 0 {
		return Path{}, fmt.Errorf("path: alternating key sequence must have odd length, got %d", len(keys))
	}
	nodes := make([]graph.NodeID, 0, len(keys)/2+1)
	edges := make([]graph.EdgeID, 0, len(keys)/2)
	for i, k := range keys {
		if i%2 == 0 {
			n, ok := g.NodeIDByKey(k)
			if !ok {
				return Path{}, fmt.Errorf("path: unknown node key %q", k)
			}
			nodes = append(nodes, n)
		} else {
			e, ok := g.EdgeIDByKey(k)
			if !ok {
				return Path{}, fmt.Errorf("path: unknown edge key %q", k)
			}
			edges = append(edges, e)
		}
	}
	return New(g, nodes, edges)
}

// MustFromKeys is FromKeys panicking on error, for tests and fixtures.
func MustFromKeys(g *graph.Graph, keys ...string) Path {
	p, err := FromKeys(g, keys...)
	if err != nil {
		panic(err)
	}
	return p
}

// IsZero reports whether p is the invalid zero value.
func (p Path) IsZero() bool { return len(p.nodes) == 0 }

// Len returns the number of edges (the paper's Len operator).
func (p Path) Len() int { return len(p.edges) }

// First returns the first node identifier (the paper's First operator).
func (p Path) First() graph.NodeID { return p.nodes[0] }

// Last returns the last node identifier (the paper's Last operator).
func (p Path) Last() graph.NodeID { return p.nodes[len(p.nodes)-1] }

// Node returns the node at 1-based position i (the paper's Node(p, i)).
// Positions run 1..Len()+1. ok is false when i is out of range.
func (p Path) Node(i int) (graph.NodeID, bool) {
	if i < 1 || i > len(p.nodes) {
		return 0, false
	}
	return p.nodes[i-1], true
}

// Edge returns the edge at 1-based position j (the paper's Edge(p, j)).
// Positions run 1..Len(). ok is false when j is out of range.
func (p Path) Edge(j int) (graph.EdgeID, bool) {
	if j < 1 || j > len(p.edges) {
		return 0, false
	}
	return p.edges[j-1], true
}

// Nodes returns the node sequence. The slice is shared; do not modify.
func (p Path) Nodes() []graph.NodeID { return p.nodes }

// Edges returns the edge sequence. The slice is shared; do not modify.
func (p Path) Edges() []graph.EdgeID { return p.edges }

// CanConcat reports whether p ◦ q is defined, i.e. Last(p) == First(q).
func (p Path) CanConcat(q Path) bool {
	return !p.IsZero() && !q.IsZero() && p.Last() == q.First()
}

// Concat returns p ◦ q: the sequence of p followed by the tail of q.
// It panics if Last(p) != First(q); callers check CanConcat (the join
// operator only concatenates matching pairs).
func (p Path) Concat(q Path) Path {
	if !p.CanConcat(q) {
		panic("path: concat of non-adjacent paths")
	}
	nodes := make([]graph.NodeID, 0, len(p.nodes)+len(q.nodes)-1)
	nodes = append(nodes, p.nodes...)
	nodes = append(nodes, q.nodes[1:]...)
	edges := make([]graph.EdgeID, 0, len(p.edges)+len(q.edges))
	edges = append(edges, p.edges...)
	edges = append(edges, q.edges...)
	fp := p.fp
	for _, e := range q.edges {
		fp = fpAppend(fp, uint64(e))
	}
	return Path{nodes: nodes, edges: edges, fp: fp}
}

// Extend returns the path p extended by one edge e, whose source must equal
// Last(p). This is the hot operation inside the recursive operator.
func (p Path) Extend(g *graph.Graph, e graph.EdgeID) Path {
	src, dst := g.Endpoints(e)
	if p.Last() != src {
		panic("path: extend with non-adjacent edge")
	}
	nodes := make([]graph.NodeID, 0, len(p.nodes)+1)
	nodes = append(nodes, p.nodes...)
	nodes = append(nodes, dst)
	edges := make([]graph.EdgeID, 0, len(p.edges)+1)
	edges = append(edges, p.edges...)
	edges = append(edges, e)
	return Path{nodes: nodes, edges: edges, fp: fpAppend(p.fp, uint64(e))}
}

// Equal reports whether p and q are the same sequence of identifiers.
func (p Path) Equal(q Path) bool {
	if len(p.nodes) != len(q.nodes) {
		return false
	}
	for i := range p.nodes {
		if p.nodes[i] != q.nodes[i] {
			return false
		}
	}
	for i := range p.edges {
		if p.edges[i] != q.edges[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical byte-string identifying the path. Two paths have
// equal keys iff they are Equal. The edge sequence plus the start node
// determines the path. Key is the canonical serialization used by tests and
// reports; duplicate elimination uses Fingerprint instead. The zero path
// has the empty key (no valid path does: even a length-zero path encodes
// its node).
func (p Path) Key() string {
	if p.IsZero() {
		return ""
	}
	var b []byte
	b = binary.AppendUvarint(b, uint64(p.nodes[0]))
	for _, e := range p.edges {
		b = binary.AppendUvarint(b, uint64(e)+1)
	}
	return string(b)
}

// IsAcyclic reports whether no node repeats (the ACYCLIC restrictor).
func (p Path) IsAcyclic() bool {
	seen := make(map[graph.NodeID]struct{}, len(p.nodes))
	for _, n := range p.nodes {
		if _, dup := seen[n]; dup {
			return false
		}
		seen[n] = struct{}{}
	}
	return true
}

// IsSimple reports whether no node repeats except that the first and last
// node may coincide (the SIMPLE restrictor).
func (p Path) IsSimple() bool {
	if len(p.nodes) == 1 {
		return true
	}
	seen := make(map[graph.NodeID]struct{}, len(p.nodes))
	inner := p.nodes[:len(p.nodes)-1]
	for _, n := range inner {
		if _, dup := seen[n]; dup {
			return false
		}
		seen[n] = struct{}{}
	}
	last := p.nodes[len(p.nodes)-1]
	if _, dup := seen[last]; dup {
		return last == p.nodes[0]
	}
	return true
}

// IsTrail reports whether no edge repeats (the TRAIL restrictor).
func (p Path) IsTrail() bool {
	seen := make(map[graph.EdgeID]struct{}, len(p.edges))
	for _, e := range p.edges {
		if _, dup := seen[e]; dup {
			return false
		}
		seen[e] = struct{}{}
	}
	return true
}

// String renders the path with raw numeric IDs; prefer Format for output.
func (p Path) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, n := range p.nodes {
		if i > 0 {
			fmt.Fprintf(&sb, ", E%d, ", p.edges[i-1])
		}
		fmt.Fprintf(&sb, "N%d", n)
	}
	sb.WriteByte(')')
	return sb.String()
}

// Format renders the path using external keys, matching the paper's
// notation: (n1, e1, n2, e4, n4).
func (p Path) Format(g *graph.Graph) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, n := range p.nodes {
		if i > 0 {
			sb.WriteString(", ")
			sb.WriteString(g.EdgeKey(p.edges[i-1]))
			sb.WriteString(", ")
		}
		sb.WriteString(g.NodeKey(n))
	}
	sb.WriteByte(')')
	return sb.String()
}

// Compare orders paths deterministically: first by length, then by node
// sequence, then by edge sequence. It is used to produce canonical result
// orderings for tests, CLI output and "non-deterministic" selectors.
func Compare(p, q Path) int {
	if d := len(p.edges) - len(q.edges); d != 0 {
		return sign(d)
	}
	for i := range p.nodes {
		if d := int(p.nodes[i]) - int(q.nodes[i]); d != 0 {
			return sign(d)
		}
	}
	for i := range p.edges {
		if d := int(p.edges[i]) - int(q.edges[i]); d != 0 {
			return sign(d)
		}
	}
	return 0
}

func sign(d int) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	default:
		return 0
	}
}
