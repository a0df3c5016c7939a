package graph

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
)

// The sealed graph keeps λ, ν and the external keys in columns the
// garbage collector does not scan: every large array below holds only
// integers, and every string is one long string per kind of object that
// values are substrings of. A Builder writes the columns as objects
// arrive; Build trims them and hands them to the Graph, so a sealed
// graph holds no row of pointers.

// keyTable finds an object's ID by its key through one pointer-free,
// open-addressed array: slots holds ID+1, 0 marking an empty slot, and its
// length is a power of two. A lookup probes linearly from the key's hash
// and confirms each ID it meets against the raw key, so a hash collision
// is only a longer probe. The table doubles once it passes half full,
// which keeps probes short.
type keyTable struct {
	slots []uint32
	hash  func(string) uint64
}

// keyColumn holds one kind's keys in ID order, each stored once between
// its quotes — key i is text[off[i]+1:off[i+1]-1] — and the table that
// finds an ID by its key. Bit i of clean is set when encoding/json writes
// key i unchanged, so that text[off[i]:off[i+1]] is already its JSON
// string.
type keyColumn struct {
	text  string
	off   []uint32
	clean []uint64
	index keyTable
}

// key returns object id's key, a substring of the column's text.
//
//pathalgebra:hotpath
func (c *keyColumn) key(id uint32) string {
	return c.text[c.off[id]+1 : c.off[id+1]-1]
}

// find returns the ID whose key is key.
//
//pathalgebra:hotpath
func (c *keyColumn) find(key string) (uint32, bool) {
	slots := c.index.slots
	if len(slots) == 0 {
		return 0, false
	}
	mask := uint64(len(slots) - 1)
	for i := c.index.hash(key) & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if s == 0 {
			return 0, false
		}
		if c.key(s-1) == key {
			return s - 1, true
		}
	}
}

// insert enters id, whose key the column already holds, into the table.
// When id would fill more than half of it, the table doubles first and
// takes the IDs below id again, which cannot double it a second time.
func (c *keyColumn) insert(id uint32) {
	t := &c.index
	if 2*(uint64(id)+1) > uint64(len(t.slots)) {
		t.slots = make([]uint32, tableSlots(uint64(id)+1))
		for old := uint32(0); old < id; old++ {
			c.insert(old)
		}
	}
	mask := uint64(len(t.slots) - 1)
	i := t.hash(c.key(id)) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = id + 1
}

// tableSlots is the size of a key table holding n keys: the least power
// of two, 16 or more, that they fill at most half of.
func tableSlots(n uint64) int {
	size := 16
	for uint64(size) < 2*n {
		size *= 2
	}
	return size
}

// buildIndex builds the column's key table over all of its keys at once,
// at the size insert would reach, with one probe per key that both places
// it and finds an earlier ID holding the same key. It reports the first
// such key's two IDs, first < dup, and then leaves the table empty.
func (c *keyColumn) buildIndex() (first, dup uint32, ok bool) {
	n := uint32(len(c.off) - 1)
	c.index.hash = newKeyHash()
	if n == 0 {
		return 0, 0, true
	}
	slots := make([]uint32, tableSlots(uint64(n)))
	mask := uint64(len(slots) - 1)
	for id := uint32(0); id < n; id++ {
		key := c.key(id)
		i := c.index.hash(key) & mask
		for ; slots[i] != 0; i = (i + 1) & mask {
			if c.key(slots[i]-1) == key {
				return slots[i] - 1, id, false
			}
		}
		slots[i] = id + 1
	}
	c.index.slots = slots
	return 0, 0, true
}

// newKeyHash returns a key table's hash under a fresh random seed.
func newKeyHash() func(string) uint64 {
	seed := maphash.MakeSeed()
	return func(s string) uint64 { return maphash.String(seed, s) }
}

// keyBuilder appends one kind's keys for a Builder. col.text always
// views buf's bytes, so find works during the build.
type keyBuilder struct {
	buf strings.Builder
	col keyColumn
}

// init makes the zero keyBuilder ready to use.
func (kb *keyBuilder) init() {
	if kb.col.off == nil {
		kb.col.off = []uint32{0}
		kb.col.index.hash = newKeyHash()
	}
}

// add appends key as the next ID's key. The caller checks for
// duplicates first; a duplicate key still gets its ID, and a Builder
// holding one fails at Build.
func (kb *keyBuilder) add(key string) error {
	kb.init()
	if uint64(kb.buf.Len())+uint64(len(key))+2 > math.MaxUint32 {
		return fmt.Errorf("graph: keys and their quotes take more than the 4 GiB their offsets address")
	}
	id := uint32(len(kb.col.off) - 1)
	kb.buf.WriteByte('"')
	kb.buf.WriteString(key)
	kb.buf.WriteByte('"')
	kb.col.text = kb.buf.String()
	kb.col.off = append(kb.col.off, uint32(kb.buf.Len()))
	if id%64 == 0 {
		kb.col.clean = append(kb.col.clean, 0)
	}
	if jsonUnchanged(key) {
		kb.col.clean[id/64] |= 1 << (id % 64)
	}
	kb.col.insert(id)
	return nil
}

// seal returns the finished column, its text copied to its exact size.
func (kb *keyBuilder) seal() keyColumn {
	kb.init()
	col := kb.col
	col.text = strings.Clone(kb.buf.String())
	return col
}

// labelTable interns labels: ids[l] is l's index in names.
type labelTable struct {
	names []string
	ids   map[string]uint32
}

func (t *labelTable) intern(l string) uint32 {
	if id, ok := t.ids[l]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	id := uint32(len(t.names))
	t.names = append(t.names, l)
	t.ids[l] = id
	return id
}

// propColumns is ν for one kind of object: one dense column of cells per
// property key, over the whole ID range, with the string values as
// substrings of text. Nodes and edges use the same type.
type propColumns struct {
	cols map[string]*valueColumn
	text string
}

// valueColumn is one property key's cells: kinds[i] is object i's value
// kind (KindNull where it has none) and bits[i] its payload — an int's
// two's complement, a float's IEEE bits, 0 or 1 for a bool, and for a
// string its start and end offsets in propColumns.text, high and low
// 32 bits.
type valueColumn struct {
	kinds []ValueKind
	bits  []uint64
}

// get returns object id's value of property name; Null when it has none.
//
//pathalgebra:hotpath
func (pc *propColumns) get(id uint32, name string) Value {
	col := pc.cols[name]
	if col == nil {
		return Value{}
	}
	return col.value(pc.text, id)
}

// value decodes cell id of the column against the strings in text.
//
//pathalgebra:hotpath
func (col *valueColumn) value(text string, id uint32) Value {
	bits := col.bits[id]
	switch kind := col.kinds[id]; kind {
	case KindString:
		return Value{Kind: kind, str: text[bits>>32 : uint32(bits)]}
	case KindInt:
		return Value{Kind: kind, i64: int64(bits)}
	case KindFloat:
		return Value{Kind: kind, f64: math.Float64frombits(bits)}
	case KindBool:
		return Value{Kind: kind, b: bits != 0}
	default:
		return Value{}
	}
}

// row returns every property object id holds, as a fresh map; nil when
// it holds none.
func (pc *propColumns) row(id uint32) map[string]Value {
	var out map[string]Value
	for name, col := range pc.cols {
		if col.kinds[id] == KindNull {
			continue
		}
		if out == nil {
			out = make(map[string]Value, len(pc.cols))
		}
		out[name] = col.value(pc.text, id)
	}
	return out
}

// propBuilder writes the property cells of one kind for a Builder.
type propBuilder struct {
	cols  map[string]*valueColumn
	buf   strings.Builder
	names []string // set's scratch
}

// set writes object id's properties into their columns, growing each
// column to cover id, in name order so that the string layout does not
// depend on map order. Null values are absent values and write nothing.
func (pb *propBuilder) set(id uint32, props map[string]Value) error {
	pb.names = pb.names[:0]
	for name := range props {
		pb.names = append(pb.names, name)
	}
	slices.Sort(pb.names)
	for _, name := range pb.names {
		v := props[name]
		if v.Kind == KindNull {
			continue
		}
		col := pb.cols[name]
		if col == nil {
			if pb.cols == nil {
				pb.cols = make(map[string]*valueColumn)
			}
			col = &valueColumn{}
			pb.cols[name] = col
		}
		col.grow(int(id) + 1)
		var bits uint64
		switch v.Kind {
		case KindString:
			lo := uint64(pb.buf.Len())
			if lo+uint64(len(v.str)) > math.MaxUint32 {
				return fmt.Errorf("graph: string property values take more than the 4 GiB their offsets address")
			}
			pb.buf.WriteString(v.str)
			bits = lo<<32 | uint64(pb.buf.Len())
		case KindInt:
			bits = uint64(v.i64)
		case KindFloat:
			bits = math.Float64bits(v.f64)
		case KindBool:
			if v.b {
				bits = 1
			}
		}
		col.kinds[id], col.bits[id] = v.Kind, bits
	}
	return nil
}

// grow extends the column with absent cells to n cells.
func (col *valueColumn) grow(n int) {
	for len(col.kinds) < n {
		col.kinds = append(col.kinds, KindNull)
		col.bits = append(col.bits, 0)
	}
}

// seal returns the columns, each grown to all n objects, with the
// string values copied to their exact size.
func (pb *propBuilder) seal(n int) propColumns {
	for _, col := range pb.cols {
		col.grow(n)
		col.kinds = slices.Clone(col.kinds)
		col.bits = slices.Clone(col.bits)
	}
	return propColumns{cols: pb.cols, text: strings.Clone(pb.buf.String())}
}
