// Package pathset provides the central data structure of the path algebra:
// a duplicate-free set of paths. Every core and recursive algebra operator
// consumes and produces values of this type (the algebra is closed under
// sets of paths, §3), which is what gives the algebra composability.
//
// Duplicate elimination is fingerprint-based: the index maps each path's
// 64-bit structural hash (path.Fingerprint) to the slice positions of the
// paths bearing it, and membership falls back to exact path.Equal inside a
// bucket, so hash collisions cost a comparison but never an answer. No key
// strings are materialized. Fallback activations are counted process-wide
// (Collisions) so the collision path stays observable.
//
// Iteration order is insertion order, so evaluation is deterministic; Sort
// re-orders into the canonical (length, sequence) order used for output.
package pathset

import (
	"sort"
	"strings"
	"sync/atomic"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/path"
)

// collisionCount tallies, process-wide, how many times an insert landed in
// a non-empty fingerprint bucket — i.e. how often the exact-Equal fallback
// had to disambiguate. It is a correctness observability hook: a sane run
// keeps it at (or within a hair of) zero.
var collisionCount atomic.Int64

// Collisions returns the process-wide count of fingerprint-bucket fallback
// activations since program start.
func Collisions() int64 { return collisionCount.Load() }

// Set is an ordered, duplicate-free collection of paths. The zero Set is
// empty and ready to use, but New pre-sizes the index.
type Set struct {
	paths []path.Path
	// index maps a fingerprint to the position in paths of the first path
	// bearing it. Values live inline in the map, so the collision-free
	// common case does no per-entry allocation.
	index map[uint64]int32
	// overflow holds the positions of further paths sharing a fingerprint
	// already in index. It stays nil until the first collision.
	overflow map[uint64][]int32
	// slab backs the storage of paths materialized out of an arena by
	// AddArena, so admitting k paths costs O(k·L/block) allocations
	// instead of two slices per path. Paths in the set alias it; it is
	// never reused after Reset.
	slab path.Slab
}

// New returns an empty set with capacity for n paths.
func New(n int) *Set {
	return &Set{
		paths: make([]path.Path, 0, n),
		index: make(map[uint64]int32, n),
	}
}

// FromPaths builds a set from the given paths, dropping duplicates.
func FromPaths(ps ...path.Path) *Set {
	s := New(len(ps))
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// Len returns the number of distinct paths.
func (s *Set) Len() int { return len(s.paths) }

// Add inserts p unless an equal path is present. It reports whether the
// path was newly inserted.
func (s *Set) Add(p path.Path) bool {
	if s.index == nil {
		s.index = make(map[uint64]int32)
	}
	fp := p.Fingerprint()
	pos := int32(len(s.paths))
	if i, taken := s.index[fp]; taken {
		if s.paths[i].Equal(p) {
			return false
		}
		for _, j := range s.overflow[fp] {
			if s.paths[j].Equal(p) {
				return false
			}
		}
		collisionCount.Add(1)
		if s.overflow == nil {
			s.overflow = make(map[uint64][]int32)
		}
		s.overflow[fp] = append(s.overflow[fp], pos)
	} else {
		s.index[fp] = pos
	}
	s.paths = append(s.paths, p)
	return true
}

// AddArena inserts the arena-resident path at r unless an equal path is
// present, reporting whether it was newly inserted. The path is
// materialized (nodes/edges slices allocated) only when genuinely new —
// membership probes walk the arena's parent chain against the candidate
// bucket — so the evaluation hot loops pay slice allocations exactly once
// per admitted result path and never for duplicates.
func (s *Set) AddArena(a *path.Arena, r path.Ref) bool {
	if s.index == nil {
		s.index = make(map[uint64]int32)
	}
	fp := a.Fingerprint(r)
	pos := int32(len(s.paths))
	if i, taken := s.index[fp]; taken {
		if a.EqualPath(r, s.paths[i]) {
			return false
		}
		for _, j := range s.overflow[fp] {
			if a.EqualPath(r, s.paths[j]) {
				return false
			}
		}
		collisionCount.Add(1)
		if s.overflow == nil {
			s.overflow = make(map[uint64][]int32)
		}
		s.overflow[fp] = append(s.overflow[fp], pos)
	} else {
		s.index[fp] = pos
	}
	s.paths = append(s.paths, a.PathSlab(r, &s.slab))
	return true
}

// AddArenaReversed inserts the REVERSE of the arena-resident path at r
// unless an equal path is present, reporting whether it was newly
// inserted. It is AddArena for the backward product search, whose arena
// chains hold paths last-node-first: membership probes and the admitted
// path both use the canonical forward fingerprint, so sets filled this
// way are indistinguishable from forward-filled ones.
func (s *Set) AddArenaReversed(a *path.Arena, r path.Ref) bool {
	if s.index == nil {
		s.index = make(map[uint64]int32)
	}
	fp := a.ReversedFingerprint(r)
	pos := int32(len(s.paths))
	if i, taken := s.index[fp]; taken {
		if a.ReversedEqualPath(r, s.paths[i]) {
			return false
		}
		for _, j := range s.overflow[fp] {
			if a.ReversedEqualPath(r, s.paths[j]) {
				return false
			}
		}
		collisionCount.Add(1)
		if s.overflow == nil {
			s.overflow = make(map[uint64][]int32)
		}
		s.overflow[fp] = append(s.overflow[fp], pos)
	} else {
		s.index[fp] = pos
	}
	s.paths = append(s.paths, a.ReversedPathSlab(r, &s.slab, fp))
	return true
}

// Contains reports whether an equal path is in the set.
func (s *Set) Contains(p path.Path) bool {
	fp := p.Fingerprint()
	i, taken := s.index[fp]
	if !taken {
		return false
	}
	if s.paths[i].Equal(p) {
		return true
	}
	for _, j := range s.overflow[fp] {
		if s.paths[j].Equal(p) {
			return true
		}
	}
	return false
}

// Paths returns the underlying slice in insertion order. The slice is
// shared; callers must not modify it.
func (s *Set) Paths() []path.Path { return s.paths }

// At returns the i-th path in insertion order.
func (s *Set) At(i int) path.Path { return s.paths[i] }

// AddAll inserts every path of t into s.
func (s *Set) AddAll(t *Set) {
	for _, p := range t.paths {
		s.Add(p)
	}
}

// Reset empties the set while keeping its allocated storage (the paths
// slice and the fingerprint index map), so hot loops reuse one set
// instead of reallocating per iteration.
func (s *Set) Reset() {
	s.paths = s.paths[:0]
	clear(s.index)
	s.overflow = nil
	// The slab is dropped, not truncated: previously returned paths may
	// still alias its blocks.
	s.slab = path.Slab{}
}

// Merge builds one set containing the paths of every shard in argument
// order, pre-sized to the summed shard lengths and deduplicating across
// shards.
//
// Deprecated: no evaluator merges sets any more; only the benchmark's
// pathset.merge_ns_per_path layer metric calls Merge, and it goes with
// that metric.
func Merge(shards ...*Set) *Set {
	n := 0
	for _, sh := range shards {
		if sh != nil {
			n += sh.Len()
		}
	}
	out := New(n)
	for _, sh := range shards {
		if sh != nil {
			out.AddAll(sh)
		}
	}
	return out
}

// FromOrderedDisjoint builds a set by concatenating pre-deduplicated path
// groups in argument order. The caller guarantees the groups are mutually
// disjoint and internally duplicate-free — true of the per-source shards
// of the product search, where every path belongs to the shard of its
// first node. Each path is indexed exactly once (no membership probe);
// the resulting set is indistinguishable from repeated Add calls in the
// same order.
func FromOrderedDisjoint(groups [][]path.Path) *Set {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	s := &Set{paths: make([]path.Path, 0, n)}
	for _, g := range groups {
		s.paths = append(s.paths, g...)
	}
	s.reindex()
	return s
}

// Union returns a new set containing the paths of s followed by the new
// paths of t (the algebra's ∪ operator, duplicate-eliminating).
func Union(s, t *Set) *Set {
	out := New(s.Len() + t.Len())
	out.AddAll(s)
	out.AddAll(t)
	return out
}

// Filter returns the paths satisfying keep, preserving order.
func (s *Set) Filter(keep func(path.Path) bool) *Set {
	out := New(s.Len())
	for _, p := range s.paths {
		if keep(p) {
			out.Add(p)
		}
	}
	return out
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{paths: append([]path.Path(nil), s.paths...)}
	out.reindex()
	return out
}

// reindex rebuilds the fingerprint index from the paths slice, which is
// assumed duplicate-free already (so no collision accounting here: any
// shared-fingerprint bucket was counted when it first formed).
func (s *Set) reindex() {
	s.index = make(map[uint64]int32, len(s.paths))
	s.overflow = nil
	for i, p := range s.paths {
		fp := p.Fingerprint()
		if _, taken := s.index[fp]; taken {
			if s.overflow == nil {
				s.overflow = make(map[uint64][]int32)
			}
			s.overflow[fp] = append(s.overflow[fp], int32(i))
		} else {
			s.index[fp] = int32(i)
		}
	}
}

// Equal reports whether s and t contain exactly the same paths,
// irrespective of order.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for _, p := range s.paths {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Sorted returns a canonical-order copy, leaving s untouched. The copy is
// sorted before its index is built, so it pays one reindex, not two.
func (s *Set) Sorted() *Set {
	out := &Set{paths: append([]path.Path(nil), s.paths...)}
	sort.SliceStable(out.paths, func(i, j int) bool {
		return path.Compare(out.paths[i], out.paths[j]) < 0
	})
	out.reindex()
	return out
}

// Format renders the set one path per line in canonical order, using the
// graph's external keys. Used by tests, the CLI and the papertables tool.
func (s *Set) Format(g *graph.Graph) string {
	c := s.Sorted()
	var sb strings.Builder
	for i, p := range c.paths {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(p.Format(g))
	}
	return sb.String()
}
