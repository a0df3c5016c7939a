// Prefix-sharing path arena: the copy-free representation behind the
// evaluation hot paths. A path under construction is a Ref — an index into
// an append-only Arena whose entries form a tree of one-edge extensions —
// so Extend is an O(1) append that shares the entire prefix with its
// parent instead of copying both ID slices (the O(L²)-bytes pattern of the
// slice-based Path). Fingerprints are carried incrementally per entry, and
// the restrictor predicates become allocation-free walks up the parent
// chain. Nodes/edges slices are materialized (Arena.Path) only when a path
// leaves the engine: on admission into a result set, for reports, or for
// projection.
//
// Arenas are single-goroutine values: each product search owns one and
// resets it between sources, which keeps refs small (int32) and makes
// deallocation a slice truncation.
package path

import (
	"sync/atomic"
	"unsafe"

	"pathalgebra/internal/graph"
)

// Ref is a handle to a path stored in an Arena. Refs are only meaningful
// together with the arena that issued them and die with its Reset.
type Ref int32

// arenaEntry is the compact per-path handle: O(1) state plus a parent link
// through which the whole prefix is shared.
type arenaEntry struct {
	fp     uint64       // incremental fingerprint of (first, edges...)
	parent Ref          // previous entry; unused when len == 0
	edge   graph.EdgeID // the edge this entry appended; unused when len == 0
	last   graph.NodeID // Last(p): the node this entry ends at
	len    int32        // edge length of the path ending here
}

// Arena is an append-only store of prefix-sharing paths. The zero Arena is
// ready to use.
type Arena struct {
	entries []arenaEntry
}

// NewArena returns an arena with capacity for n entries.
func NewArena(n int) *Arena {
	return &Arena{entries: make([]arenaEntry, 0, n)}
}

// Bytes reports the memory retained by the arena's entry backing array
// (capacity, not live length) — the number trace spans report as
// arena_bytes.
func (a *Arena) Bytes() int { return cap(a.entries) * int(unsafe.Sizeof(arenaEntry{})) }

// Len returns the number of live entries; together with TruncateTo it
// brackets speculative extensions.
func (a *Arena) Len() int { return len(a.entries) }

// Reset discards every entry, keeping the allocated storage. All
// previously issued Refs become invalid.
func (a *Arena) Reset() { a.entries = a.entries[:0] }

// TruncateTo rolls the arena back to a previous Len(), discarding the
// entries appended since. Callers use it to reclaim speculative extensions
// that ended up neither admitted nor retained. Refs at or beyond n become
// invalid; refs below n are untouched.
//
//pathalgebra:hotpath
func (a *Arena) TruncateTo(n int) { a.entries = a.entries[:n] }

// Leaf appends the length-zero path (n) and returns its ref.
//
//pathalgebra:hotpath
func (a *Arena) Leaf(n graph.NodeID) Ref {
	a.entries = append(a.entries, arenaEntry{fp: fpStart(uint64(n)), last: n})
	return Ref(len(a.entries) - 1)
}

// Extend appends the path r extended by edge e ending at dst, sharing r as
// prefix. It is the hot O(1) counterpart of Path.Extend; the caller
// supplies dst (= the edge's head) so no graph lookup happens here.
//
//pathalgebra:hotpath
func (a *Arena) Extend(r Ref, e graph.EdgeID, dst graph.NodeID) Ref {
	p := &a.entries[r]
	a.entries = append(a.entries, arenaEntry{
		fp:     fpAppend(p.fp, uint64(e)),
		parent: r,
		edge:   e,
		last:   dst,
		len:    p.len + 1,
	})
	return Ref(len(a.entries) - 1)
}

// FromPath interns a materialized path into the arena, one entry per edge,
// and returns the ref of its last entry. It is how the closure operators
// seed an arena frontier from a base path set.
func (a *Arena) FromPath(p Path) Ref {
	r := a.Leaf(p.nodes[0])
	for i, e := range p.edges {
		r = a.Extend(r, e, p.nodes[i+1])
	}
	return r
}

// Fingerprint returns the structural hash of the path at r; it equals
// Arena.Path(r).Fingerprint() without materializing.
//
//pathalgebra:hotpath
func (a *Arena) Fingerprint(r Ref) uint64 { return a.entries[r].fp }

// PathLen returns the edge length of the path at r.
//
//pathalgebra:hotpath
func (a *Arena) PathLen(r Ref) int { return int(a.entries[r].len) }

// Last returns the last node of the path at r.
//
//pathalgebra:hotpath
func (a *Arena) Last(r Ref) graph.NodeID { return a.entries[r].last }

// First returns the first node of the path at r by walking to its leaf.
//
//pathalgebra:hotpath
func (a *Arena) First(r Ref) graph.NodeID {
	for a.entries[r].len > 0 {
		r = a.entries[r].parent
	}
	return a.entries[r].last
}

// ContainsNode reports whether node n occurs anywhere in the path at r.
// It walks the parent chain once — no map, no allocation — which is what
// makes the incremental restrictor checks of the product search free of
// the per-candidate map builds of Path.IsAcyclic/IsSimple.
//
//pathalgebra:hotpath
func (a *Arena) ContainsNode(r Ref, n graph.NodeID) bool {
	for {
		e := &a.entries[r]
		if e.last == n {
			return true
		}
		if e.len == 0 {
			return false
		}
		r = e.parent
	}
}

// ContainsEdge reports whether edge e occurs in the path at r.
//
//pathalgebra:hotpath
func (a *Arena) ContainsEdge(r Ref, e graph.EdgeID) bool {
	for {
		ent := &a.entries[r]
		if ent.len == 0 {
			return false
		}
		if ent.edge == e {
			return true
		}
		r = ent.parent
	}
}

// Equal reports whether the paths at r1 and r2 are the same sequence of
// identifiers. Prefix sharing shortcuts the walk: as soon as the two
// chains meet at a common ref the remaining prefix is shared and therefore
// equal. A path is determined by its first node plus its edge sequence
// (edges fix their endpoints), so only those are compared.
func (a *Arena) Equal(r1, r2 Ref) bool {
	if a.entries[r1].len != a.entries[r2].len {
		return false
	}
	for r1 != r2 {
		e1, e2 := &a.entries[r1], &a.entries[r2]
		if e1.len == 0 {
			return e1.last == e2.last
		}
		if e1.edge != e2.edge {
			return false
		}
		r1, r2 = e1.parent, e2.parent
	}
	return true
}

// EqualPath reports whether the path at r equals the materialized path p,
// walking the chain backwards against p's edge slice.
func (a *Arena) EqualPath(r Ref, p Path) bool {
	ent := &a.entries[r]
	if int(ent.len) != p.Len() {
		return false
	}
	for i := p.Len() - 1; i >= 0; i-- {
		if ent.edge != p.edges[i] {
			return false
		}
		r = ent.parent
		ent = &a.entries[r]
	}
	return ent.last == p.nodes[0]
}

// fill writes the node/edge sequence of the path at r into the given
// regions (len(nodes) == PathLen(r)+1, len(edges) == PathLen(r)) by one
// reverse walk up the parent chain.
func (a *Arena) fill(r Ref, nodes []graph.NodeID, edges []graph.EdgeID) {
	ent := &a.entries[r]
	for i := len(edges); i > 0; i-- {
		nodes[i] = ent.last
		edges[i-1] = ent.edge
		ent = &a.entries[ent.parent]
	}
	nodes[0] = ent.last
}

// Path materializes the path at r as an immutable slice-backed Path with
// freshly allocated, exactly-sized backing arrays. Result sets use the
// slab-backed PathSlab instead; Path serves one-off materializations.
func (a *Arena) Path(r Ref) Path {
	ent := &a.entries[r]
	n := int(ent.len)
	nodes := make([]graph.NodeID, n+1)
	var edges []graph.EdgeID
	if n > 0 {
		edges = make([]graph.EdgeID, n)
	}
	a.fill(r, nodes, edges)
	return Path{nodes: nodes, edges: edges, fp: ent.fp}
}

// Slab is a block allocator for materialized path storage: Arena.PathSlab
// carves each admitted path's node/edge arrays from large shared blocks
// instead of allocating two slices per path, so materializing a result set
// of k paths costs O(k·L/slabBlock) allocations rather than 2k. Blocks are
// append-only — carved regions are never reused or resized — so paths
// backed by a slab are as immutable as individually allocated ones. The
// zero Slab is ready to use.
type Slab struct {
	nodes []graph.NodeID
	edges []graph.EdgeID
}

// Slab blocks grow geometrically from slabMinBlock to slabMaxBlock IDs, so
// a set holding a handful of short paths wastes at most a small block
// while large result sets converge to one allocation per slabMaxBlock IDs.
// Paths longer than a block get a dedicated right-sized block.
const (
	slabMinBlock = 64
	slabMaxBlock = 2048
)

// nextBlock sizes a fresh block given the capacity of the exhausted one
// and the immediate need.
func nextBlock(prevCap, need int) int {
	block := min(max(2*prevCap, slabMinBlock), slabMaxBlock)
	return max(block, need)
}

// carveNodes returns a zeroed region of n node IDs with a hard capacity
// fence (a later append to the region cannot overwrite its neighbours).
func (s *Slab) carveNodes(n int) []graph.NodeID {
	if cap(s.nodes)-len(s.nodes) < n {
		s.nodes = make([]graph.NodeID, 0, nextBlock(cap(s.nodes), n))
	}
	region := s.nodes[len(s.nodes) : len(s.nodes)+n : len(s.nodes)+n]
	s.nodes = s.nodes[:len(s.nodes)+n]
	return region
}

// carveEdges is carveNodes for edge IDs.
func (s *Slab) carveEdges(n int) []graph.EdgeID {
	if cap(s.edges)-len(s.edges) < n {
		s.edges = make([]graph.EdgeID, 0, nextBlock(cap(s.edges), n))
	}
	region := s.edges[len(s.edges) : len(s.edges)+n : len(s.edges)+n]
	s.edges = s.edges[:len(s.edges)+n]
	return region
}

// PathSlab materializes the path at r like Path, with backing storage
// carved from the slab. The caller owns the slab and must keep it private
// to one consumer (the result set holding the returned paths).
func (a *Arena) PathSlab(r Ref, s *Slab) Path {
	ent := &a.entries[r]
	n := int(ent.len)
	nodes := s.carveNodes(n + 1)
	var edges []graph.EdgeID
	if n > 0 {
		edges = s.carveEdges(n)
	}
	a.fill(r, nodes, edges)
	return Path{nodes: nodes, edges: edges, fp: ent.fp}
}

// Reversed materialization: the backward product search builds paths from
// their last node toward their first, so the arena chain of a backward ref
// — walked head to leaf — already yields the forward node/edge sequence.
// These methods materialize that forward path with its canonical forward
// fingerprint, so backward-evaluated results are indistinguishable from
// forward-evaluated ones to every downstream consumer (set membership,
// joins, unions, Equal).

// ReversedFingerprint returns the canonical fingerprint of the REVERSE of
// the path at r — the fingerprint Arena.ReversedPathSlab would assign —
// by one walk down the chain, without materializing.
func (a *Arena) ReversedFingerprint(r Ref) uint64 {
	ent := &a.entries[r]
	fp := fpStart(uint64(ent.last))
	for ent.len > 0 {
		fp = fpAppend(fp, uint64(ent.edge))
		ent = &a.entries[ent.parent]
	}
	return fp
}

// ReversedPathSlab materializes the REVERSE of the path at r with storage
// carved from the slab and the canonical forward fingerprint fp (from
// ReversedFingerprint, which callers will already have computed for the
// duplicate probe).
func (a *Arena) ReversedPathSlab(r Ref, s *Slab, fp uint64) Path {
	ent := &a.entries[r]
	n := int(ent.len)
	nodes := s.carveNodes(n + 1)
	var edges []graph.EdgeID
	if n > 0 {
		edges = s.carveEdges(n)
	}
	for i := 0; ent.len > 0; i++ {
		nodes[i] = ent.last
		edges[i] = ent.edge
		ent = &a.entries[ent.parent]
	}
	nodes[n] = ent.last
	return Path{nodes: nodes, edges: edges, fp: fp}
}

// arenaCollisionCount tallies, process-wide, how many RefSet inserts hit a
// non-empty fingerprint bucket and needed the exact-equality fallback —
// the arena-side twin of pathset.Collisions.
var arenaCollisionCount atomic.Int64

// ArenaCollisions returns the process-wide count of RefSet fingerprint
// fallback activations since program start.
func ArenaCollisions() int64 { return arenaCollisionCount.Load() }

// RefSet is a duplicate-detecting set of arena paths — the mark set of the
// product search. Identity is fingerprint-bucketed with an exact chain-walk
// fallback on collision, exactly like pathset.Set, but members are Refs:
// no path is ever materialized to be remembered.
type RefSet struct {
	a     *Arena
	index map[uint64]Ref
	// overflow holds further refs sharing a fingerprint already in index;
	// nil until the first collision.
	overflow map[uint64][]Ref
	size     int
}

// NewRefSet returns an empty set over the given arena.
func NewRefSet(a *Arena) *RefSet {
	return &RefSet{a: a, index: make(map[uint64]Ref)}
}

// Len returns the number of distinct paths recorded.
func (s *RefSet) Len() int { return s.size }

// Add records the path at r and reports whether it was new. The ref is
// retained: callers must not truncate it out of the arena afterwards.
//
//pathalgebra:hotpath
func (s *RefSet) Add(r Ref) bool {
	fp := s.a.Fingerprint(r)
	if i, taken := s.index[fp]; taken {
		if s.a.Equal(i, r) {
			return false
		}
		for _, j := range s.overflow[fp] {
			if s.a.Equal(j, r) {
				return false
			}
		}
		arenaCollisionCount.Add(1)
		if s.overflow == nil {
			//lint:ignore hotpathalloc first-collision path: runs at most once per 64-bit fingerprint collision
			s.overflow = make(map[uint64][]Ref)
		}
		s.overflow[fp] = append(s.overflow[fp], r)
	} else {
		s.index[fp] = r
	}
	s.size++
	return true
}

// Reset empties the set, keeping the index storage. Call together with the
// arena's Reset — stored refs are invalid afterwards.
func (s *RefSet) Reset() {
	clear(s.index)
	s.overflow = nil
	s.size = 0
}
