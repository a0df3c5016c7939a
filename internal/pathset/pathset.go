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
// The index is built by the first Add, Contains or Equal that needs it,
// not when a set is built: sets whose paths are known to be distinct
// (FromDistinct, FromOrderedDisjoint, Filter, Clone, Sorted, and
// AppendArena's) only append, and most of them are only ever iterated.
//
// Iteration order is insertion order, so evaluation is deterministic;
// Sorted copies into the canonical (length, sequence) order used for
// output.
package pathset

import (
	"slices"
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
// empty and ready to use; New pre-sizes it. A set nobody adds to may be
// read from several goroutines at once, Contains and Equal included.
type Set struct {
	paths []path.Path
	// idx is the fingerprint index over paths, nil until the first probe.
	// The result cache hands one set to every reader paging it, so two
	// readers may build it at once: it is published by CAS and the loser
	// adopts the winner's, as the graph's property postings are.
	idx atomic.Pointer[index]
	// slab backs the storage of paths materialized out of an arena by
	// AddArena, so admitting k paths costs O(k·L/block) allocations
	// instead of two slices per path. Paths in the set alias it; it is
	// never reused after Reset.
	slab path.Slab
}

// index maps fingerprints to positions in a set's paths slice.
type index struct {
	// first maps a fingerprint to the position of the first path bearing
	// it. Values live inline in the map, so the collision-free common case
	// does no per-entry allocation.
	first map[uint64]int32
	// overflow holds the positions of further paths sharing a fingerprint
	// already in first. It stays nil until the first collision.
	overflow map[uint64][]int32
}

// New returns an empty set with capacity for n paths; its index is sized
// for n when the first Add builds it.
func New(n int) *Set {
	return &Set{paths: make([]path.Path, 0, n)}
}

// FromDistinct returns a set over ps, which the caller guarantees holds
// no two equal paths. The set takes ps over and hashes nothing until it
// is first probed; it is indistinguishable from one filled by Add in the
// same order.
func FromDistinct(ps []path.Path) *Set {
	return &Set{paths: ps}
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
	ix := s.index()
	fp := p.Fingerprint()
	pos := int32(len(s.paths))
	if i, taken := ix.first[fp]; taken {
		if s.paths[i].Equal(p) {
			return false
		}
		for _, j := range ix.overflow[fp] {
			if s.paths[j].Equal(p) {
				return false
			}
		}
		ix.collide(fp, pos)
	} else {
		ix.first[fp] = pos
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
	ix := s.index()
	fp := a.Fingerprint(r)
	pos := int32(len(s.paths))
	if i, taken := ix.first[fp]; taken {
		if a.EqualPath(r, s.paths[i]) {
			return false
		}
		for _, j := range ix.overflow[fp] {
			if a.EqualPath(r, s.paths[j]) {
				return false
			}
		}
		ix.collide(fp, pos)
	} else {
		ix.first[fp] = pos
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
	ix := s.index()
	fp := a.ReversedFingerprint(r)
	pos := int32(len(s.paths))
	if i, taken := ix.first[fp]; taken {
		if a.ReversedEqualPath(r, s.paths[i]) {
			return false
		}
		for _, j := range ix.overflow[fp] {
			if a.ReversedEqualPath(r, s.paths[j]) {
				return false
			}
		}
		ix.collide(fp, pos)
	} else {
		ix.first[fp] = pos
	}
	s.paths = append(s.paths, a.ReversedPathSlab(r, &s.slab, fp))
	return true
}

// AppendArena appends the arena path at r, which the caller guarantees
// is not in the set, without probing: the product search's shards under
// a deterministic automaton, which generates each path once. A set filled
// only this way hashes nothing until it is first probed, like one built
// by FromDistinct.
func (s *Set) AppendArena(a *path.Arena, r path.Ref) {
	s.appendDistinct(a.PathSlab(r, &s.slab))
}

// AppendArenaReversed is AppendArena for a backward search's chain,
// materialized reversed as AddArenaReversed does.
func (s *Set) AppendArenaReversed(a *path.Arena, r path.Ref) {
	s.appendDistinct(a.ReversedPathSlab(r, &s.slab, a.ReversedFingerprint(r)))
}

// appendDistinct appends p, which is not in the set; a set already
// indexed keeps its index current through Add.
func (s *Set) appendDistinct(p path.Path) {
	if s.idx.Load() != nil {
		s.Add(p)
		return
	}
	s.paths = append(s.paths, p)
}

// collide records the path at pos as another bearer of fp, a fingerprint
// already in the index: one activation of the exact-Equal fallback.
func (ix *index) collide(fp uint64, pos int32) {
	collisionCount.Add(1)
	if ix.overflow == nil {
		ix.overflow = make(map[uint64][]int32)
	}
	ix.overflow[fp] = append(ix.overflow[fp], pos)
}

// index returns the set's fingerprint index, building it over the paths
// present on first use. Concurrent first probes may each build one; the
// first published wins and the others are dropped.
func (s *Set) index() *index {
	if ix := s.idx.Load(); ix != nil {
		return ix
	}
	// Sized for the capacity: a set New pre-sized, or one about to be
	// filled by Add, grows into it.
	ix := &index{first: make(map[uint64]int32, cap(s.paths))}
	for i, p := range s.paths {
		// The paths are distinct already, so a shared bucket is not a
		// fallback activation: it was counted when it first formed.
		fp := p.Fingerprint()
		if _, taken := ix.first[fp]; !taken {
			ix.first[fp] = int32(i)
			continue
		}
		if ix.overflow == nil {
			ix.overflow = make(map[uint64][]int32)
		}
		ix.overflow[fp] = append(ix.overflow[fp], int32(i))
	}
	if s.idx.CompareAndSwap(nil, ix) {
		return ix
	}
	return s.idx.Load()
}

// Contains reports whether an equal path is in the set.
func (s *Set) Contains(p path.Path) bool {
	if len(s.paths) == 0 {
		return false
	}
	ix := s.index()
	fp := p.Fingerprint()
	i, taken := ix.first[fp]
	if !taken {
		return false
	}
	if s.paths[i].Equal(p) {
		return true
	}
	for _, j := range ix.overflow[fp] {
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
	if ix := s.idx.Load(); ix != nil {
		clear(ix.first)
		ix.overflow = nil
	}
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
// first node. Nothing is hashed until the set is probed (FromDistinct);
// the resulting set is indistinguishable from repeated Add calls in the
// same order.
//
// Deprecated: the search's shard merge concatenates into one slice and
// calls FromDistinct; only the benchmark's merge layer metric builds its
// shards here, and it goes with that metric.
func FromOrderedDisjoint(groups [][]path.Path) *Set {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	ps := make([]path.Path, 0, n)
	for _, g := range groups {
		ps = append(ps, g...)
	}
	return FromDistinct(ps)
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
	out := make([]path.Path, 0, s.Len())
	for _, p := range s.paths {
		if keep(p) {
			out = append(out, p)
		}
	}
	return FromDistinct(out)
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	return FromDistinct(slices.Clone(s.paths))
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

// Sorted returns a canonical-order copy, leaving s untouched.
func (s *Set) Sorted() *Set {
	ps := slices.Clone(s.paths)
	slices.SortStableFunc(ps, path.Compare)
	return FromDistinct(ps)
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
