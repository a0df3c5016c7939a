package graph

import (
	"cmp"
	"slices"
)

// Node-property equality postings: for one property key, every node that
// holds the key, grouped by value — the index that turns an endpoint
// condition such as first.id = 42 into a lookup instead of a scan of V.
//
// Like the bitset index, the postings are derived state, built lazily on
// first use of a key and cached per sealed *Graph value. Properties never
// change after a node is created (Store.Apply only adds and tombstones
// objects), so a delta view reads its base's postings, drops tombstoned
// holders and merges its own matching appended nodes, and a compaction's
// fresh *Graph starts with an empty cache of its own.

// propIndex is one key's equality postings over a sealed graph. ids is a
// single slab holding every holder of the key, grouped by canonical value
// and ascending by ID within a group; each value class locates its groups
// in the slab. Canonical values follow Value.Compare's notion of equality:
// strings key as themselves, bools as themselves, and every numeric value
// as its float64 (an int 5 and a float 5.0 share a group; -0.0 and 0
// compare equal and share one too). Ints past 2^53 can share a float64
// group without being equal, which is why a lookup may return a superset.
type propIndex struct {
	ids   []NodeID
	nums  postings[float64]
	strs  postings[string]
	bools postings[uint8] // 0 false, 1 true
	// nan reports that some holder stores a numeric NaN. Value.Compare
	// finds NaN equal to every number, so no numeric group is complete on
	// such a key, and numeric lookups refuse to answer.
	nan bool
}

// postings locates the groups of one value class: the nodes whose
// canonical value is vals[i] are ids[off[i]:off[i+1]] of the slab.
type postings[T cmp.Ordered] struct {
	vals []T
	off  []int32
}

// find returns v's group with its capacity capped at its length, so that
// appending to a group copies it instead of overwriting the next one.
func (p *postings[T]) find(ids []NodeID, v T) []NodeID {
	i, found := slices.BinarySearch(p.vals, v)
	if !found {
		return nil
	}
	lo, hi := p.off[i], p.off[i+1]
	return ids[lo:hi:hi]
}

// holder is one (canonical value, node) pair of the index build.
type holder[T cmp.Ordered] struct {
	v  T
	id NodeID
}

// group sorts one class's holders by (value, ID), appends their IDs to
// the slab and records the group boundaries.
func group[T cmp.Ordered](hs []holder[T], ids []NodeID) (postings[T], []NodeID) {
	slices.SortFunc(hs, func(a, b holder[T]) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	var p postings[T]
	for i, h := range hs {
		if i == 0 || h.v != hs[i-1].v {
			p.vals = append(p.vals, h.v)
			p.off = append(p.off, int32(len(ids)))
		}
		ids = append(ids, h.id)
	}
	p.off = append(p.off, int32(len(ids)))
	return p, ids
}

// indexable reports whether v can be looked up: Null equals nothing, and
// a NaN constant equals every number.
func indexable(v Value) bool {
	switch v.Kind {
	case KindString, KindBool, KindInt:
		return true
	case KindFloat:
		return v.f64 == v.f64
	default:
		return false
	}
}

func boolKey(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func (ix *propIndex) lookup(v Value) ([]NodeID, bool) {
	switch v.Kind {
	case KindString:
		return ix.strs.find(ix.ids, v.str), true
	case KindBool:
		return ix.bools.find(ix.ids, boolKey(v.b)), true
	default:
		if ix.nan {
			return nil, false
		}
		return ix.nums.find(ix.ids, v.asFloat()), true
	}
}

// buildPropIndex builds the postings of key in one pass over the nodes
// and one sort per value class.
func (g *Graph) buildPropIndex(key string) *propIndex {
	ix := &propIndex{}
	var nums []holder[float64]
	var strs []holder[string]
	var bools []holder[uint8]
	col := g.nodeProps.cols[key]
	if col == nil {
		return ix
	}
	for i, kind := range col.kinds {
		if kind == KindNull {
			continue
		}
		id := NodeID(i)
		switch v := col.value(g.nodeProps.text, uint32(i)); v.Kind {
		case KindString:
			strs = append(strs, holder[string]{v.str, id})
		case KindBool:
			bools = append(bools, holder[uint8]{boolKey(v.b), id})
		case KindInt, KindFloat:
			if f := v.asFloat(); f == f {
				nums = append(nums, holder[float64]{f, id})
			} else {
				ix.nan = true
			}
		}
	}
	ids := make([]NodeID, 0, len(nums)+len(strs)+len(bools))
	ix.nums, ids = group(nums, ids)
	ix.strs, ids = group(strs, ids)
	ix.bools, ids = group(bools, ids)
	ix.ids = ids
	return ix
}

// propIndex returns key's postings, building and publishing them on
// first use. The cache is a copy-on-write map swapped in by CAS, so
// readers take one atomic load and a map probe; a racing double build of
// one key is resolved by keeping the first published index.
func (g *Graph) propIndex(key string) *propIndex {
	cur := g.props.Load()
	if cur != nil {
		if ix, ok := (*cur)[key]; ok {
			return ix
		}
	}
	ix := g.buildPropIndex(key)
	for {
		next := make(map[string]*propIndex, 1)
		if cur != nil {
			for k, v := range *cur {
				next[k] = v
			}
		}
		next[key] = ix
		if g.props.CompareAndSwap(cur, &next) {
			return ix
		}
		cur = g.props.Load()
		if won, ok := (*cur)[key]; ok {
			return won
		}
	}
}

// NodesWithProp returns, ascending, the live nodes whose property key may
// equal v (Value.Equal): every match, and possibly nodes that do not
// match — numeric values are grouped by their float64, so ints past 2^53
// can collide — so callers re-check the condition on what it returns. ok
// is false when v cannot be looked up (Null, NaN) or when the key's
// numeric postings are incomplete because some node stores NaN under it;
// the caller must then scan. The slice may alias the index; do not
// modify.
func (g *Graph) NodesWithProp(key string, v Value) (ids []NodeID, ok bool) {
	if !indexable(v) {
		return nil, false
	}
	if g.ov != nil {
		return g.ov.nodesWithProp(key, v)
	}
	return g.propIndex(key).lookup(v)
}

// nodesWithProp answers NodesWithProp on a delta view from the base's
// postings: tombstoned holders are dropped and live appended nodes whose
// value equals v are added (their IDs follow every base ID, so the result
// stays ascending). With nothing to drop or add it is the base's slice.
func (ov *overlay) nodesWithProp(key string, v Value) ([]NodeID, bool) {
	out, ok := ov.base.NodesWithProp(key, v)
	if !ok {
		return nil, false
	}
	if len(ov.deadNodes) > 0 {
		base := out
		out = nil
		for _, id := range base {
			if _, dead := ov.deadNodes[id]; !dead {
				out = append(out, id)
			}
		}
	}
	for i := range ov.extraNodes {
		n := &ov.extraNodes[i]
		if _, dead := ov.deadNodes[n.ID]; !dead && n.Props[key].Equal(v) {
			out = append(out, n.ID) // copies a base group (see find)
		}
	}
	return out, true
}
