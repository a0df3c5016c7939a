package graph

import "math/bits"

const cowFan = 64 // slots per leaf

// cowLeaf is 64 slots of a cowTable. gen is the generation — the
// Store.Apply — that made it: only that generation writes it in place.
type cowLeaf[T any] struct {
	vals [cowFan]T
	gen  uint64
}

// cowTable is a persistent array of T indexed by uint32, zero where never
// written, that successive epochs of an overlay share: a flat array of
// leaves, in which slots no batch wrote share one zero leaf. A batch that
// writes it copies the leaf array (one pointer per 64 IDs) and each leaf
// it writes, once; a published table is never written again, so readers
// take no lock. Two index steps read a slot, which keeps Graph.OutRuns
// within the inliner's budget; a third level would not fit.
type cowTable[T comparable] struct {
	leaves []*cowLeaf[T]
	zero   *cowLeaf[T] // shared by the slots never written
	gen    uint64      // the generation that owns leaves
}

// get returns the value at i.
func (t *cowTable[T]) get(i uint32) (v T) {
	if k := int(i / cowFan); k < len(t.leaves) {
		v = t.leaves[k].vals[i%cowFan]
	}
	return v
}

// ref returns the slot of index i for generation gen to write, copying
// the leaf array and i's leaf unless gen made them.
func (t *cowTable[T]) ref(i uint32, gen uint64) *T {
	t.cover(i+1, gen)
	if l := t.leaves[i/cowFan]; l.gen != gen {
		c := *l
		c.gen = gen
		t.leaves[i/cowFan] = &c
	}
	return &t.leaves[i/cowFan].vals[i%cowFan]
}

// cover makes the table hold indexes below n, owned by gen.
func (t *cowTable[T]) cover(n uint32, gen uint64) {
	if t.zero == nil {
		t.zero = new(cowLeaf[T])
	}
	k := int((n + cowFan - 1) / cowFan)
	if t.gen == gen && k <= len(t.leaves) {
		return
	}
	leaves := make([]*cowLeaf[T], max(k, len(t.leaves)))
	for i := copy(leaves, t.leaves); i < len(leaves); i++ {
		leaves[i] = t.zero
	}
	t.leaves, t.gen = leaves, gen
}

// bitTable is a persistent set of IDs, 64 to a word of a cowTable.
type bitTable struct{ words cowTable[uint64] }

func (b *bitTable) has(id uint32) bool {
	return b.words.get(id/64)&(1<<(id%64)) != 0
}

func (b *bitTable) add(id uint32, gen uint64) {
	*b.words.ref(id/64, gen) |= 1 << (id % 64)
}

// ids returns the set's members, ascending.
func (b *bitTable) ids() []uint32 {
	var out []uint32
	for k, l := range b.words.leaves {
		for j, word := range l.vals {
			for ; word != 0; word &= word - 1 {
				out = append(out, uint32((k*cowFan+j)*64+bits.TrailingZeros64(word)))
			}
		}
	}
	return out
}

// keyIndex finds an object a batch appended by its key: an open-addressed
// table of ID+1 in a cowTable, probed linearly from the key's hash, in
// which every appended object is entered once — those since killed too,
// which a probe skips. It doubles once more than half full, entering all
// of them again.
type keyIndex struct {
	slots cowTable[uint32]
	size  uint32 // a power of two, or 0 while empty
	n     uint32 // entries
}

// find returns the live object holding key: the one a batch appended,
// whose key keyOf gives, else the one in col, the base's keys — unless
// dead holds it.
func (x *keyIndex) find(key string, col *keyColumn, dead *bitTable, keyOf func(id uint32) string) (uint32, bool) {
	for i := uint32(col.index.hash(key)) & (x.size - 1); x.size > 0; i = (i + 1) & (x.size - 1) {
		s := x.slots.get(i)
		if s == 0 {
			break
		}
		if keyOf(s-1) == key && !dead.has(s-1) {
			return s - 1, true
		}
	}
	id, ok := col.find(key)
	return id, ok && !dead.has(id)
}

// insert enters the next appended object, whose ID is first+x.n;
// hashOf(j) is the key hash of the j-th.
func (x *keyIndex) insert(first uint32, gen uint64, hashOf func(j uint32) uint64) {
	if 2*(x.n+1) > x.size {
		n := x.n
		*x = keyIndex{size: uint32(tableSlots(uint64(n) + 1))}
		for x.n < n {
			x.insert(first, gen, hashOf)
		}
	}
	i := uint32(hashOf(x.n)) & (x.size - 1)
	for x.slots.get(i) != 0 {
		i = (i + 1) & (x.size - 1)
	}
	*x.slots.ref(i, gen) = first + x.n + 1
	x.n++
}
