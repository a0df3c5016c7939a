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
// holders and adds its own matching appended nodes — the posting rule its
// label lists follow too (livePostings) — and a compaction carries every
// key its base had built into the folded graph the same way
// (carryPostings).

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

// holders is one key's holders, by value class.
type holders struct {
	nums  []holder[float64]
	strs  []holder[string]
	bools []holder[uint8]
	nan   bool // some holder stores a numeric NaN
}

func (h *holders) add(v Value, id NodeID) {
	switch v.Kind {
	case KindString:
		h.strs = append(h.strs, holder[string]{v.str, id})
	case KindBool:
		h.bools = append(h.bools, holder[uint8]{boolKey(v.b), id})
	case KindInt, KindFloat:
		if f := v.asFloat(); f == f {
			h.nums = append(h.nums, holder[float64]{f, id})
		} else {
			h.nan = true
		}
	}
}

// byValueID orders holders by (value, ID).
func byValueID[T cmp.Ordered](a, b holder[T]) int {
	if c := cmp.Compare(a.v, b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

func (h *holders) sort() {
	slices.SortFunc(h.nums, byValueID)
	slices.SortFunc(h.strs, byValueID)
	slices.SortFunc(h.bools, byValueID)
}

// index groups the holders, each class in (value, ID) order, into a
// propIndex.
func (h *holders) index() *propIndex {
	ix := &propIndex{nan: h.nan}
	ids := make([]NodeID, 0, len(h.nums)+len(h.strs)+len(h.bools))
	ix.nums, ids = group(h.nums, ids)
	ix.strs, ids = group(h.strs, ids)
	ix.bools, ids = group(h.bools, ids)
	ix.ids = ids
	return ix
}

// group appends one class's holders' IDs, in (value, ID) order, to the
// slab and records the group boundaries.
func group[T cmp.Ordered](hs []holder[T], ids []NodeID) (postings[T], []NodeID) {
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
	col := g.nodeProps.cols[key]
	if col == nil {
		return &propIndex{}
	}
	var h holders
	for i, kind := range col.kinds {
		if kind != KindNull {
			h.add(col.value(g.nodeProps.text, uint32(i)), NodeID(i))
		}
	}
	h.sort()
	return h.index()
}

// carryPostings gives f, the fold of ov, the postings of every key ov's
// base had built: newID renumbers the live nodes, monotonically, so each
// group stays ascending without its dead holders, and the holders among
// ov's live appended rows (live indexes them) merge in. A key whose
// column the fold dropped, or that a holder may store NaN under, is left
// to be built on first use.
func (ov *overlay) carryPostings(f *Graph, newID []NodeID, live []int) {
	built := ov.base.props.Load()
	if built == nil {
		return
	}
	carried := make(map[string]*propIndex, len(*built))
	for key, ix := range *built {
		if ix.nan || f.nodeProps.cols[key] == nil {
			continue
		}
		var add holders
		for _, i := range live {
			if n := &ov.extraNodes[i]; n.Props[key].Kind != KindNull {
				add.add(n.Props[key], newID[n.ID])
			}
		}
		add.sort()
		h := holders{nan: add.nan,
			nums:  merge(renumber(ix.nums, ix.ids, ov, newID), add.nums),
			strs:  merge(renumber(ix.strs, ix.ids, ov, newID), add.strs),
			bools: merge(renumber(ix.bools, ix.ids, ov, newID), add.bools),
		}
		carried[key] = h.index()
	}
	f.props.Store(&carried)
}

// renumber returns the live holders of p's groups under their new IDs,
// in (value, ID) order.
func renumber[T cmp.Ordered](p postings[T], ids []NodeID, ov *overlay, newID []NodeID) []holder[T] {
	var out []holder[T]
	for g, v := range p.vals {
		for _, id := range ids[p.off[g]:p.off[g+1]] {
			if !ov.nodeDead(id) {
				out = append(out, holder[T]{v, newID[id]})
			}
		}
	}
	return out
}

// merge merges two lists of holders in (value, ID) order.
func merge[T cmp.Ordered](a, b []holder[T]) []holder[T] {
	out := make([]holder[T], 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if byValueID(a[0], b[0]) < 0 {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
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
// postings by the posting rule (livePostings): tombstoned holders are
// dropped and live appended nodes whose value equals v are added.
func (ov *overlay) nodesWithProp(key string, v Value) ([]NodeID, bool) {
	base, ok := ov.base.NodesWithProp(key, v)
	if !ok {
		return nil, false
	}
	dead, _ := ov.deadCounts()
	return livePostings(base, &ov.deadNodes, dead, NodeID(ov.base.NumNodes()), len(ov.extraNodes),
		func(i int) bool { return ov.extraNodes[i].Props[key].Equal(v) }), true
}
