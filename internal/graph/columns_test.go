package graph

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// collidingHashes are key-table hashes under which keys collide: one is
// constant, so every key starts probing at one slot and leaves one tag
// there, and the other differs between keys only in bits above any
// table's mask, so every key starts probing at the same slot but most
// leave different tags.
func collidingHashes() map[string]func(string) uint64 {
	seed := maphash.MakeSeed()
	return map[string]func(string) uint64{
		"constant":   func(string) uint64 { return 7 },
		"above-mask": func(s string) uint64 { return maphash.String(seed, s)<<32 | 7 },
	}
}

// collidingKeys are keys of every shape, 108 of them, so that a table
// holding them has doubled three times.
func collidingKeys() []string {
	keys := []string{"n1", "", "n2", "\xff", "é", "n1\x00", `"`, `\"`}
	for i := 0; i < 100; i++ {
		keys = append(keys, "k"+strconv.Itoa(i))
	}
	return keys
}

// TestKeyTableCollisions builds key columns whose hashes collide
// (collidingHashes), through insert as a Builder does and through
// buildIndex as a fold and a snapshot recovery do. Each key must be found
// at its ID through the probe chain, absent keys must not be, and both
// must hold across the table's doublings; buildIndex must report a
// repeated key at its two IDs, first < dup.
func TestKeyTableCollisions(t *testing.T) {
	keys := collidingKeys()
	absent := []string{"n3", "n", "\xfe", "k100", `"n1"`, `n1"`, `""`}
	check := func(t *testing.T, stage string, col *keyColumn) {
		t.Helper()
		for i, k := range keys {
			if id, ok := col.find(k); !ok || id != uint32(i) {
				t.Errorf("%s: find(%q) = %d, %v; want %d, true", stage, k, id, ok, i)
			}
			if got := col.key(uint32(i)); got != k {
				t.Errorf("%s: key(%d) = %q, want %q", stage, i, got, k)
			}
		}
		for _, k := range absent {
			if id, ok := col.find(k); ok {
				t.Errorf("%s: find(%q) = %d, true; want not found", stage, k, id)
			}
		}
	}
	for name, hash := range collidingHashes() {
		var kb keyBuilder
		kb.init(hash)
		for _, k := range keys {
			if err := kb.add(k, hash(k)); err != nil {
				t.Fatalf("%s: add(%q): %v", name, k, err)
			}
		}
		col := kb.seal()
		if got, want := len(col.index.slots), 16<<3; got < want {
			t.Fatalf("%s: table has %d slots after %d keys, want at least %d (three doublings)", name, got, len(keys), want)
		}
		check(t, name+" insert", &col)

		built := keyColumn{text: col.text, off: col.off, index: keyTable{hash: hash}}
		if first, dup, ok := built.buildIndex(); !ok {
			t.Fatalf("%s: buildIndex reports IDs %d and %d share a key", name, first, dup)
		}
		if got, want := len(built.index.slots), len(col.index.slots); got != want {
			t.Errorf("%s: buildIndex made %d slots, insert %d", name, got, want)
		}
		check(t, name+" buildIndex", &built)

		// Key 5 again at ID 50: the probe that places ID 50 meets ID 5.
		var dupKB keyBuilder
		dupKB.init(hash)
		for i, k := range keys {
			if i == 50 {
				k = keys[5]
			}
			if err := dupKB.add(k, hash(k)); err != nil {
				t.Fatalf("%s: add(%q): %v", name, k, err)
			}
		}
		dupCol := dupKB.seal()
		dupCol.index = keyTable{hash: hash}
		if first, dup, ok := dupCol.buildIndex(); ok || first != 5 || dup != 50 {
			t.Errorf("%s: buildIndex over a repeated key = %d, %d, %v; want 5, 50, false", name, first, dup, ok)
		}
		if dupCol.index.slots != nil {
			t.Errorf("%s: buildIndex left a table after finding a repeated key", name)
		}
	}
}

// TestKeyIndexCollisions runs a delta view's key lookups under colliding
// hashes: the sealed base's columns and the overlay's keyIndex, which
// probes with the base's hash, share one probe chain. Appended, deleted
// and re-added keys must each be found at their live ID, through the
// keyIndex's doublings, and deleted and absent keys not at all.
func TestKeyIndexCollisions(t *testing.T) {
	keys := collidingKeys()
	for name, hash := range collidingHashes() {
		b := NewBuilder()
		b.nodeKeys.init(hash)
		b.edgeKeys.init(hash)
		for _, k := range keys[:40] {
			b.AddNode(k, "A", nil)
		}
		for i := 0; i < 20; i++ {
			b.AddEdgeIDs("e"+strconv.Itoa(i), NodeID(i), NodeID(i+1), "E", nil)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		s := NewStore(g, StoreOptions{CompactThreshold: -1})
		var ops []Op
		for _, k := range keys[40:] {
			ops = append(ops, Op{Kind: OpAddNode, Key: k, Label: "A"})
		}
		ops = append(ops, Op{Kind: OpAddEdge, Key: "e20", Src: keys[0], Dst: keys[70], Label: "E"})
		if _, err := s.Apply(Batch{Ops: ops}); err != nil {
			t.Fatalf("%s: Apply: %v", name, err)
		}
		// Delete a base key and an appended one, then add both again:
		// each probe passes the dead entry before the live one.
		dead := []string{keys[30], keys[60]}
		ops = ops[:0]
		for _, k := range dead {
			ops = append(ops, Op{Kind: OpDelNode, Key: k})
		}
		if _, err := s.Apply(Batch{Ops: ops}); err != nil {
			t.Fatalf("%s: Apply deletes: %v", name, err)
		}
		v := s.Graph()
		for _, k := range dead {
			if id, ok := v.NodeIDByKey(k); ok {
				t.Errorf("%s: deleted key %q found at %d", name, k, id)
			}
		}
		ops = ops[:0]
		for _, k := range dead {
			ops = append(ops, Op{Kind: OpAddNode, Key: k, Label: "A"})
		}
		if _, err := s.Apply(Batch{Ops: ops}); err != nil {
			t.Fatalf("%s: Apply re-adds: %v", name, err)
		}
		v = s.Graph()
		for _, k := range keys {
			id, ok := v.NodeIDByKey(k)
			if !ok || !v.NodeAlive(id) || v.NodeKey(id) != k {
				t.Errorf("%s: NodeIDByKey(%q) = %d, %v", name, k, id, ok)
			}
		}
		for i := 0; i <= 20; i++ {
			k := "e" + strconv.Itoa(i)
			if id, ok := v.EdgeIDByKey(k); !ok || v.EdgeKey(id) != k {
				t.Errorf("%s: EdgeIDByKey(%q) = %d, %v", name, k, id, ok)
			}
		}
		for _, k := range []string{"n3", "k100", "e21", `"n1"`} {
			if id, ok := v.NodeIDByKey(k); ok {
				t.Errorf("%s: NodeIDByKey(%q) = %d, true; want not found", name, k, id)
			}
		}
		s.Close()
	}
}

// fuzzBytes reads fuzz input as a stream, with zeros past its end.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], *b)
	*b = (*b)[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// string reads up to 7 raw bytes: empty, ASCII, Unicode or invalid UTF-8.
func (b *fuzzBytes) string() string {
	n := min(int(b.byte()%8), len(*b))
	s := string((*b)[:n])
	*b = (*b)[n:]
	return s
}

var (
	fuzzLabels    = []string{"", "A", "B", "ü"}
	fuzzPropNames = []string{"id", "name", "", "ν"}
)

// props reads a property map with a value of every kind, NaN included
// unless finite is set (batches refuse NaN and infinities).
func (b *fuzzBytes) props(finite bool) map[string]Value {
	n := int(b.byte() % 4)
	if n == 0 {
		return nil
	}
	m := make(map[string]Value, n)
	for i := 0; i < n; i++ {
		name := fuzzPropNames[b.byte()%4]
		var v Value
		switch b.byte() % 5 {
		case 0:
			v = Null()
		case 1:
			v = StringValue(b.string())
		case 2:
			v = IntValue(int64(b.uint64()))
		case 3:
			f := math.Float64frombits(b.uint64())
			if finite && (math.IsNaN(f) || math.IsInf(f, 0)) {
				f = 0.5
			}
			v = FloatValue(f)
		default:
			v = BoolValue(b.byte()%2 == 1)
		}
		if finite && v.Kind == KindString {
			v = StringValue(strings.ToValidUTF8(v.Str(), "?"))
		}
		m[name] = v
	}
	return m
}

// rowModel is the property graph as plain maps keyed by external key:
// what the columns must answer.
type rowModel struct {
	nodes map[string]Node // ID unused
	edges map[string]rowEdge
}

type rowEdge struct {
	src, dst, label string
	props           map[string]Value
}

func (m *rowModel) hasKey(k string) bool {
	_, n := m.nodes[k]
	_, e := m.edges[k]
	return n || e
}

// sameValue is Value identity: floats by their bits, so NaN equals NaN.
func sameValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case KindString:
		return a.Str() == b.Str()
	case KindInt:
		return a.Int() == b.Int()
	case KindBool:
		return a.Bool() == b.Bool()
	default:
		return true
	}
}

// checkColumns compares every accessor of g with the row model.
func checkColumns(t *testing.T, stage string, g *Graph, m *rowModel) {
	t.Helper()
	if g.LiveNodes() != len(m.nodes) || g.LiveEdges() != len(m.edges) {
		t.Fatalf("%s: %d live nodes, %d live edges; model has %d, %d", stage, g.LiveNodes(), g.LiveEdges(), len(m.nodes), len(m.edges))
	}
	out := map[string][]string{}
	in := map[string][]string{}
	for k, e := range m.edges {
		id, ok := g.EdgeIDByKey(k)
		if !ok || !g.EdgeAlive(id) {
			t.Fatalf("%s: EdgeIDByKey(%q) = %d, %v", stage, k, id, ok)
		}
		if row, ok := g.EdgeByKey(k); !ok || row.ID != id || row.Key != k {
			t.Fatalf("%s: EdgeByKey(%q) = %+v, %v", stage, k, row, ok)
		}
		if got := g.EdgeKey(id); got != k {
			t.Fatalf("%s: EdgeKey(%d) = %q, want %q", stage, id, got, k)
		}
		if got := g.EdgeLabel(id); got != e.label {
			t.Fatalf("%s: EdgeLabel(%q) = %q, want %q", stage, k, got, e.label)
		}
		src, dst := g.Endpoints(id)
		if g.NodeKey(src) != e.src || g.NodeKey(dst) != e.dst {
			t.Fatalf("%s: Endpoints(%q) = %q→%q, want %q→%q", stage, k, g.NodeKey(src), g.NodeKey(dst), e.src, e.dst)
		}
		for _, name := range append(fuzzPropNames, "missing") {
			if got, want := g.EdgeProp(id, name), e.props[name]; !sameValue(got, want) {
				t.Fatalf("%s: EdgeProp(%q, %q) = %v, want %v", stage, k, name, got, want)
			}
		}
		out[e.src] = append(out[e.src], k)
		in[e.dst] = append(in[e.dst], k)
	}
	for k, n := range m.nodes {
		id, ok := g.NodeIDByKey(k)
		if !ok || !g.NodeAlive(id) {
			t.Fatalf("%s: NodeIDByKey(%q) = %d, %v", stage, k, id, ok)
		}
		if row, ok := g.NodeByKey(k); !ok || row.ID != id || row.Key != k || row.Label != n.Label {
			t.Fatalf("%s: NodeByKey(%q) = %+v, %v", stage, k, row, ok)
		}
		if got := g.NodeKey(id); got != k {
			t.Fatalf("%s: NodeKey(%d) = %q, want %q", stage, id, got, k)
		}
		if got := g.NodeLabel(id); got != n.Label {
			t.Fatalf("%s: NodeLabel(%q) = %q, want %q", stage, k, got, n.Label)
		}
		for _, name := range append(fuzzPropNames, "missing") {
			if got, want := g.NodeProp(id, name), n.Props[name]; !sameValue(got, want) {
				t.Fatalf("%s: NodeProp(%q, %q) = %v, want %v", stage, k, name, got, want)
			}
		}
		checkRuns(t, stage+" out", g, g.OutRuns(id), out[k], true)
		checkRuns(t, stage+" in", g, g.InRuns(id), in[k], false)
	}
	checkLabels(t, stage, g, m)
	for _, k := range []string{"\x00missing", "missing\xff"} {
		if !m.hasKey(k) {
			if _, ok := g.NodeIDByKey(k); ok {
				t.Fatalf("%s: NodeIDByKey(%q) found a key the model lacks", stage, k)
			}
			if _, ok := g.EdgeIDByKey(k); ok {
				t.Fatalf("%s: EdgeIDByKey(%q) found a key the model lacks", stage, k)
			}
		}
	}
}

// checkLabels compares the label index with the model: each label's live
// node and edge IDs, ascending, no entry for "", and Labels the labels
// with a live holder.
func checkLabels(t *testing.T, stage string, g *Graph, m *rowModel) {
	t.Helper()
	nodes, edges := map[string][]NodeID{}, map[string][]EdgeID{}
	for k, n := range m.nodes {
		id, _ := g.NodeIDByKey(k)
		nodes[n.Label] = append(nodes[n.Label], id)
	}
	for k, e := range m.edges {
		id, _ := g.EdgeIDByKey(k)
		edges[e.label] = append(edges[e.label], id)
	}
	var labels []string
	for _, l := range append(fuzzLabels, "missing") {
		wantN, wantE := nodes[l], edges[l]
		if l == "" {
			wantN, wantE = nil, nil
		} else if len(wantN)+len(wantE) > 0 {
			labels = append(labels, l)
		}
		slices.Sort(wantN)
		slices.Sort(wantE)
		if got := g.NodesWithLabel(l); !slices.Equal(got, wantN) {
			t.Fatalf("%s: NodesWithLabel(%q) = %v, want %v", stage, l, got, wantN)
		}
		if got := g.EdgesWithLabel(l); !slices.Equal(got, wantE) {
			t.Fatalf("%s: EdgesWithLabel(%q) = %v, want %v", stage, l, got, wantE)
		}
	}
	slices.Sort(labels)
	if got := g.Labels(); !slices.Equal(got, labels) {
		t.Fatalf("%s: Labels() = %q, want %q", stage, got, labels)
	}
}

// checkRuns checks one node's adjacency against the model's edge keys:
// the same edges, in (symbol, ID) order, each beside its far end, and
// runs that partition them by symbol.
func checkRuns(t *testing.T, stage string, g *Graph, adj Adjacency, want []string, out bool) {
	t.Helper()
	if len(adj.Edges) != len(want) || len(adj.Nbrs) != len(want) {
		t.Fatalf("%s: adjacency holds %d edges, %d neighbours; want %d", stage, len(adj.Edges), len(adj.Nbrs), len(want))
	}
	got := make([]string, len(adj.Edges))
	for i, e := range adj.Edges {
		got[i] = g.EdgeKey(e)
		far, dst := g.Endpoints(e)
		if out {
			far = dst
		}
		if adj.Nbrs[i] != far {
			t.Fatalf("%s: edge %q beside neighbour %d, want %d", stage, got[i], adj.Nbrs[i], far)
		}
		if i > 0 {
			ps, s := g.SymbolOf(g.EdgeLabel(adj.Edges[i-1])), g.SymbolOf(g.EdgeLabel(e))
			if ps > s || ps == s && adj.Edges[i-1] >= e {
				t.Fatalf("%s: edges %v not in (symbol, ID) order", stage, adj.Edges)
			}
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
		t.Fatalf("%s: adjacency %q, want %q", stage, got, want)
	}
	pos := int32(0)
	for _, r := range adj.Runs {
		if r.Lo != pos || r.Hi <= r.Lo {
			t.Fatalf("%s: runs %v do not partition %d positions", stage, adj.Runs, len(adj.Edges))
		}
		for _, e := range adj.Edges[r.Lo:r.Hi] {
			if g.SymbolOf(g.EdgeLabel(e)) != r.Sym {
				t.Fatalf("%s: run of symbol %d holds edge %q labelled %q", stage, r.Sym, g.EdgeKey(e), g.EdgeLabel(e))
			}
		}
		if got, ok := adj.Find(r.Sym); !ok || got != r {
			t.Fatalf("%s: Find(%d) = %v, %v; want %v", stage, r.Sym, got, ok, r)
		}
		pos = r.Hi
	}
	if int(pos) != len(adj.Edges) {
		t.Fatalf("%s: runs %v cover %d of %d positions", stage, adj.Runs, pos, len(adj.Edges))
	}
}

// columnSeeds seed FuzzGraphColumns, and through fuzzGraph the graphs
// whose snapshots seed FuzzReadSnapshot.
var columnSeeds = [][]byte{
	[]byte("\x03\x02n1\x01\x02\x01\x03Moe\x02n2\x02\x00\x01\x02\x03\x00\x00\x00\x00\x00\x00\xf8\x7f"),
	[]byte("\x05\x00\x01\xff\x00\x02é\x03\x01\x02\x02\x00\x01\x04\x01\x01e\x02\x01\x02\x00\x03\x01\x02"),
	[]byte("\x07\x01a\x01\x01b\x01\x01c\x01\x01d\x04\x00\x01\x02\x03\x01x\x01y\x03\x02\x05\x06\x07\x08"),
	// A batch that adds edges between base nodes, so the delta view
	// rebuilds their adjacency in both directions.
	[]byte("7100000000102$000000C00000C01000120020000017007011117010"),
	// Three batches: the first appends node c with an edge to a, the
	// second adds an edge a→c and deletes c, cascading into edges that an
	// earlier batch and the same batch appended, and the third appends c
	// again under its old key.
	[]byte("\x02\x01a\x01\x00\x01b\x01\x00\x01\x01e\x00\x01\x01\x00\x02\x01c\x00\x02\x00\x01f\x01\x01\x00\x02\x00\x02\x01g\x01\x01\x00\x00\x02\x01x\x02\x02\x01\x01c\x00\x01\x00"),
}

// fuzzGraph builds a sealed graph from the fuzz stream and returns it with
// its row model, its node keys in ID order and the edge labels it uses.
func fuzzGraph(t testing.TB, in *fuzzBytes) (*Graph, *rowModel, []string, map[string]bool) {
	t.Helper()
	m := &rowModel{nodes: map[string]Node{}, edges: map[string]rowEdge{}}
	b := NewBuilder()
	var nodeKeys []string
	for i, n := 0, int(in.byte()%12); i < n; i++ {
		k, label, props := in.string(), fuzzLabels[in.byte()%4], in.props(false)
		if m.hasKey(k) {
			continue
		}
		b.AddNode(k, label, props)
		m.nodes[k] = Node{Key: k, Label: label, Props: props}
		nodeKeys = append(nodeKeys, k)
	}
	edgeLabels := map[string]bool{}
	for i, n := 0, int(in.byte()%16); i < n && len(nodeKeys) > 0; i++ {
		k := in.string()
		src, dst := nodeKeys[int(in.byte())%len(nodeKeys)], nodeKeys[int(in.byte())%len(nodeKeys)]
		label, props := fuzzLabels[in.byte()%4], in.props(false)
		if m.hasKey(k) {
			continue
		}
		b.AddEdge(k, src, dst, label, props)
		m.edges[k] = rowEdge{src: src, dst: dst, label: label, props: props}
		edgeLabels[label] = true
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, m, nodeKeys, edgeLabels
}

// FuzzGraphColumns builds a graph from fuzz bytes — arbitrary keys, labels
// and properties of every kind — and checks the columns and the label
// index against a row model on the sealed graph, on a Store delta view after each of up to
// three batches (so later batches patch the patches of earlier ones),
// after Compact, and read back from the compacted graph's snapshot.
// Before compacting, the fold's snapshot bytes must equal those of the
// row replay (replayRebuild).
func FuzzGraphColumns(f *testing.F) {
	for _, seed := range columnSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		g, m, nodeKeys, edgeLabels := fuzzGraph(t, &in)
		checkColumns(t, "sealed", g, m)

		s := NewStore(g, StoreOptions{CompactThreshold: -1})
		defer s.Close()
		for round := 1; round <= 3 && (round == 1 || len(in) > 0); round++ {
			ops := fuzzBatch(&in, m, &nodeKeys, edgeLabels)
			if _, err := s.Apply(Batch{Ops: ops}); err != nil {
				t.Fatalf("batch %d: Apply(%+v): %v", round, ops, err)
			}
			checkColumns(t, fmt.Sprintf("delta %d", round), s.Graph(), m)
		}
		checkFold(t, "fold", s.Graph())
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		checkColumns(t, "compacted", s.Graph(), m)
		data, err := encodeSnapshot(s.Epoch(), s.Graph())
		if err != nil {
			t.Fatalf("encodeSnapshot: %v", err)
		}
		back, _, err := decodeSnapshot(data)
		if err != nil {
			t.Fatalf("decodeSnapshot of encodeSnapshot's output: %v", err)
		}
		checkColumns(t, "snapshot", back, m)
	})
}

// fuzzBatch reads one batch of valid UTF-8 and finite values, with edge
// labels the sealed graph knows, so that the store stays a delta view,
// and applies it to the model.
func fuzzBatch(in *fuzzBytes, m *rowModel, nodeKeys *[]string, edgeLabels map[string]bool) []Op {
	var ops []Op
	for i, n := 0, int(in.byte()%6); i < n; i++ {
		switch k := strings.ToValidUTF8(in.string(), "?"); in.byte() % 4 {
		case 0:
			label, props := fuzzLabels[in.byte()%4], in.props(true)
			if !m.hasKey(k) {
				ops = append(ops, Op{Kind: OpAddNode, Key: k, Label: label, Props: props})
				m.nodes[k] = Node{Key: k, Label: label, Props: props}
				*nodeKeys = append(*nodeKeys, k)
			}
		case 1:
			label, props := fuzzLabels[in.byte()%4], in.props(true)
			live := liveKeys(m, *nodeKeys)
			if len(live) == 0 || !edgeLabels[label] || m.hasKey(k) {
				continue
			}
			src, dst := live[int(in.byte())%len(live)], live[int(in.byte())%len(live)]
			if !utf8.ValidString(src) || !utf8.ValidString(dst) {
				continue
			}
			ops = append(ops, Op{Kind: OpAddEdge, Key: k, Src: src, Dst: dst, Label: label, Props: props})
			m.edges[k] = rowEdge{src: src, dst: dst, label: label, props: props}
		case 2:
			if live := liveKeys(m, *nodeKeys); len(live) > 0 {
				if del := live[int(in.byte())%len(live)]; utf8.ValidString(del) {
					ops = append(ops, Op{Kind: OpDelNode, Key: del})
					delete(m.nodes, del)
					for ek, e := range m.edges {
						if e.src == del || e.dst == del {
							delete(m.edges, ek)
						}
					}
				}
			}
		default:
			var live []string
			for ek := range m.edges {
				live = append(live, ek)
			}
			sort.Strings(live)
			if len(live) > 0 {
				if del := live[int(in.byte())%len(live)]; utf8.ValidString(del) {
					ops = append(ops, Op{Kind: OpDelEdge, Key: del})
					delete(m.edges, del)
				}
			}
		}
	}
	return ops
}

// liveKeys returns the model's live node keys in insertion order.
func liveKeys(m *rowModel, order []string) []string {
	var live []string
	for _, k := range order {
		if _, ok := m.nodes[k]; ok {
			live = append(live, k)
		}
	}
	return live
}
