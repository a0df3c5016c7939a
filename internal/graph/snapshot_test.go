package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figure1 is the paper's Figure 1 as ldbc.Figure1 builds it; ldbc imports
// this package, so its tests cannot.
func figure1(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	for _, n := range [][3]string{
		{"n1", "Person", "Moe"}, {"n2", "Person", "Homer"}, {"n3", "Person", "Lisa"}, {"n4", "Person", "Apu"},
	} {
		b.AddNode(n[0], n[1], Props("name", n[2]))
	}
	for _, n := range [][2]string{{"n5", "I like donuts"}, {"n6", "Hi there"}, {"n7", "Saxophone!"}} {
		b.AddNode(n[0], "Message", Props("content", n[1]))
	}
	for _, e := range [][4]string{
		{"e1", "n1", "n2", "Knows"}, {"e2", "n2", "n3", "Knows"}, {"e3", "n3", "n2", "Knows"},
		{"e4", "n2", "n4", "Knows"}, {"e5", "n2", "n6", "Likes"}, {"e6", "n5", "n1", "Has_creator"},
		{"e7", "n3", "n7", "Likes"}, {"e8", "n1", "n6", "Likes"}, {"e9", "n4", "n5", "Likes"},
		{"e10", "n7", "n4", "Has_creator"}, {"e11", "n6", "n3", "Has_creator"},
	} {
		b.AddEdge(e[0], e[1], e[2], e[3], nil)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func mustEncodeSnapshot(t testing.TB, epoch uint64, g *Graph) []byte {
	t.Helper()
	data, err := encodeSnapshot(epoch, g)
	if err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	return data
}

// exactGraph holds what only a byte-exact snapshot keeps: an empty key,
// keys, a label and strings that are not valid UTF-8, keys that JSON
// escapes, -0 and, when floats is set, NaN and both infinities, which
// WriteJSON cannot write.
func exactGraph(t *testing.T, floats bool) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("", "Person", Props("name", "", "score", math.Copysign(0, -1)))
	b.AddNode("a\xffb", "Per\xfeson", Props("name", "x\xffy", "ok", true))
	b.AddNode("<a&b>", "Person", Props("name", "\u2028\"\\", "n", int64(math.MinInt64)))
	b.AddNode("\x00\x1f\u2029", "", nil)
	b.AddEdge("e\xc3", "", "a\xffb", "Kn\xffows", Props("w", math.Copysign(0, -1)))
	b.AddEdge("e<>", "<a&b>", "", "Knows", Props("s", "\xff"))
	b.AddEdge("\u2028", "\x00\x1f\u2029", "\x00\x1f\u2029", "Knows", nil)
	if floats {
		b.AddNode("nan", "Person", Props("score", math.NaN(), "up", math.Inf(1), "down", math.Inf(-1)))
		b.AddNode("nan-bits", "Person", Props("score", math.Float64frombits(0x7ff8_0000_dead_beef)))
		b.AddEdge("e-inf", "nan", "nan-bits", "Knows", Props("w", math.Inf(-1), "v", math.NaN()))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestSnapshotRoundTripExact: a graph holding values WriteJSON changes
// or refuses checkpoints and reopens as itself — the same WriteJSON
// bytes where WriteJSON can write it, bit-identical floats, the same key
// JSON and the same adjacency.
func TestSnapshotRoundTripExact(t *testing.T) {
	for _, floats := range []bool{false, true} {
		seed := exactGraph(t, floats)
		dir := t.TempDir()
		s := openDurable(t, dir, seed)
		mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person", Props: Props("f", 0.1)})
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("floats=%v: Checkpoint: %v", floats, err)
		}
		want := s.Graph()
		s.Close()
		r := openDurable(t, dir, nil)
		got := r.Graph()
		r.Close()

		if floats {
			var buf bytes.Buffer
			if err := want.WriteJSON(&buf); err == nil {
				t.Fatal("WriteJSON wrote NaN: the graph no longer tests what JSON cannot hold")
			}
		} else {
			var a, b bytes.Buffer
			if err := want.WriteJSON(&a); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			if err := got.WriteJSON(&b); err != nil {
				t.Fatalf("WriteJSON of the recovered graph: %v", err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("recovered graph writes\n%s\nwant\n%s", b.Bytes(), a.Bytes())
			}
		}
		if g, w := renderAdjacency(got), renderAdjacency(want); g != w {
			t.Errorf("floats=%v: recovered adjacency\n%s\nwant\n%s", floats, g, w)
		}
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("floats=%v: recovered %d nodes, %d edges; want %d, %d", floats, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for id := NodeID(0); int(id) < want.NumNodes(); id++ {
			if g, w := got.AppendNodeKeyJSON(nil, id), want.AppendNodeKeyJSON(nil, id); !bytes.Equal(g, w) {
				t.Errorf("node %d key JSON %s, want %s", id, g, w)
			}
			for _, name := range []string{"name", "score", "up", "down", "ok", "n", "f"} {
				if g, w := got.NodeProp(id, name), want.NodeProp(id, name); !sameValue(g, w) {
					t.Errorf("node %q prop %q = %v, want %v", want.NodeKey(id), name, g, w)
				}
			}
		}
		for id := EdgeID(0); int(id) < want.NumEdges(); id++ {
			if g, w := got.AppendEdgeKeyJSON(nil, id), want.AppendEdgeKeyJSON(nil, id); !bytes.Equal(g, w) {
				t.Errorf("edge %d key JSON %s, want %s", id, g, w)
			}
			for _, name := range []string{"w", "v", "s"} {
				if g, w := got.EdgeProp(id, name), want.EdgeProp(id, name); !sameValue(g, w) {
					t.Errorf("edge %q prop %q = %v, want %v", want.EdgeKey(id), name, g, w)
				}
			}
		}
	}
}

// TestSnapshotReadsVersion1: a snapshot written as JSON, with the
// version-1 magic, still opens at its epoch, and the next checkpoint
// replaces it with a version-2 file that reopens the same.
func TestSnapshotReadsVersion1(t *testing.T) {
	dir := t.TempDir()
	doc := `{"nodes":[{"key":"a","label":"Person","props":{"name":{"kind":"string","str":"A"}}},{"key":"b"}],` +
		`"edges":[{"key":"ab","src":"a","dst":"b","label":"Knows","props":{"w":{"kind":"float","float":0.5}}}]}`
	hdr := make([]byte, walHeaderLen)
	copy(hdr, "PASNAP\x01\x00")
	binary.LittleEndian.PutUint64(hdr[8:], 7)
	path := filepath.Join(dir, SnapshotFile)
	if err := os.WriteFile(path, append(hdr, doc...), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openDurable(t, dir, nil)
	if s.Epoch() != 7 {
		t.Errorf("epoch = %d, want 7", s.Epoch())
	}
	if got, want := renderAdjacency(s.Graph()), "a[Person]: Knows(ab→b,); b[]:; "; got != want {
		t.Errorf("adjacency %q, want %q", got, want)
	}
	ab, _ := s.Graph().EdgeIDByKey("ab")
	if w := s.Graph().EdgeProp(ab, "w"); w.Float() != 0.5 {
		t.Errorf("w = %v, want 0.5", w)
	}
	mustApply(t, s, Op{Kind: OpAddNode, Key: "c", Label: "Person"})
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := renderAdjacency(s.Graph())
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != snapMagic {
		t.Fatalf("checkpoint wrote magic %q, want %q", data[:8], snapMagic)
	}
	r := openDurable(t, dir, nil)
	defer r.Close()
	if got := renderAdjacency(r.Graph()); got != want || r.Epoch() != 8 {
		t.Errorf("reopened at epoch %d with %q; want 8, %q", r.Epoch(), got, want)
	}
}

// TestSnapshotRejectsCorruption: damaged framing and columns that break
// what the graph's accessors assume are each an error wrapping
// ErrSnapshotCorrupt. The column cases damage a built graph before its
// snapshot is encoded, so their checksums hold.
func TestSnapshotRejectsCorruption(t *testing.T) {
	good := mustEncodeSnapshot(t, 3, seedGraph(t))
	for n := 0; n < len(good); n++ {
		if _, _, err := decodeSnapshot(good[:n]); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncated to %d bytes: got %v, want ErrSnapshotCorrupt", n, err)
		}
	}
	for i := 0; i < len(good); i++ {
		if i >= 8 && i < walHeaderLen {
			continue // the epoch: any value is one
		}
		bad := bytes.Clone(good)
		bad[i] ^= 0x40
		if _, _, err := decodeSnapshot(bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("byte %d flipped: got %v, want ErrSnapshotCorrupt", i, err)
		}
	}
	framing := map[string][]byte{
		"trailing byte":  append(bytes.Clone(good), 0),
		"version 1 JSON": append([]byte("PASNAP\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"), `{"nodes":[`...),
		"version 3":      append([]byte("PASNAP\x03\x00"), good[8:]...),
	}
	for name, data := range framing {
		if _, _, err := decodeSnapshot(data); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}

	scored := func() *Graph {
		b := NewBuilder()
		b.AddNode("a", "Person", Props("name", "A", "ok", true, "n", int64(1)))
		b.AddNode("b", "Person", Props("name", "B"))
		b.AddNode("c", "Message", nil)
		b.AddEdge("x", "a", "b", "Knows", nil)
		b.AddEdge("y", "b", "c", "Likes", nil)
		return b.MustBuild()
	}
	for name, damage := range map[string]func(g *Graph){
		"short column":        func(g *Graph) { g.edgeSrc = g.edgeSrc[:1] },
		"long column":         func(g *Graph) { g.nodeProps.cols["ok"].bits = append(g.nodeProps.cols["ok"].bits, 0) },
		"endpoint":            func(g *Graph) { g.edgeDst[1] = NodeID(len(g.nodeLabel)) },
		"node label ID":       func(g *Graph) { g.nodeLabel[2] = uint32(len(g.nodeLabels)) },
		"repeated label name": func(g *Graph) { g.nodeLabels[1] = g.nodeLabels[0] },
		"symbol ID":           func(g *Graph) { g.edgeSym[0] = SymbolID(len(g.symbols)) },
		"negative symbol ID":  func(g *Graph) { g.edgeSym[0] = -1 },
		"symbol order":        func(g *Graph) { g.symbols[0], g.symbols[1] = g.symbols[1], g.symbols[0] },
		"repeated node key":   func(g *Graph) { g.nodeKeys.text = strings.Replace(g.nodeKeys.text, `"b"`, `"a"`, 1) },
		"node key on an edge": func(g *Graph) { g.edgeKeys.text = strings.Replace(g.edgeKeys.text, `"y"`, `"c"`, 1) },
		"unquoted key":        func(g *Graph) { g.nodeKeys.text = strings.Replace(g.nodeKeys.text, `"c"`, `c "`, 1) },
		"empty key slot":      func(g *Graph) { g.edgeKeys.off[1] = g.edgeKeys.off[0] },
		"offset past text":    func(g *Graph) { g.nodeKeys.off[1] = uint32(len(g.nodeKeys.text) + 2) },
		"offsets short":       func(g *Graph) { g.edgeKeys.off[2]-- },
		"offset start":        func(g *Graph) { g.nodeKeys.off[0] = 1 },
		"bool payload":        func(g *Graph) { g.nodeProps.cols["ok"].bits[0] = 2 },
		"string past text":    func(g *Graph) { g.nodeProps.cols["name"].bits[1] = uint64(len(g.nodeProps.text)+1) << 32 },
		"string end past text": func(g *Graph) {
			g.nodeProps.cols["name"].bits[1] = uint64(len(g.nodeProps.text) + 1)
		},
		"absent cell payload": func(g *Graph) { g.nodeProps.cols["n"].bits[1] = 5 },
		"unknown kind":        func(g *Graph) { g.nodeProps.cols["n"].kinds[1] = KindBool + 1 },
	} {
		g := scored()
		damage(g)
		if _, _, err := decodeSnapshot(mustEncodeSnapshot(t, 0, g)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// TestSnapshotFileCorrupt: OpenDurable refuses a damaged snapshot with
// ErrSnapshotCorrupt instead of falling back to the seed.
func TestSnapshotFileCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person"})
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	s.Close()
	path := filepath.Join(dir, SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, seedGraph(t), durableOpts); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("OpenDurable over a damaged snapshot: got %v, want ErrSnapshotCorrupt", err)
	}
}

// resum returns data with every section's CRC recomputed over its
// payload, as far as the framing parses, so that fuzzed payloads reach
// the column validation behind the checksums.
func resum(data []byte) []byte {
	out := bytes.Clone(data)
	if len(out) < walHeaderLen || string(out[:8]) != snapMagic {
		return out
	}
	for at := walHeaderLen; len(out)-at >= snapSecHdrLen; {
		n := binary.LittleEndian.Uint64(out[at:])
		if n > uint64(len(out)-at-snapSecHdrLen) {
			break
		}
		payload := out[at+snapSecHdrLen : at+snapSecHdrLen+int(n)]
		binary.LittleEndian.PutUint32(out[at+8:], crc32.Checksum(payload, castagnoli))
		at += snapSecHdrLen + int(n)
	}
	return out
}

// checkRecovered asserts what a graph read from a snapshot promises its
// readers: each key found at its ID and written as encoding/json writes
// it, adjacency that agrees with ρ in both directions, and statistics
// that count it.
func checkRecovered(t *testing.T, g *Graph) {
	t.Helper()
	out := map[NodeID][]string{}
	in := map[NodeID][]string{}
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		key := g.EdgeKey(id)
		if got, ok := g.EdgeIDByKey(key); !ok || got != id {
			t.Fatalf("EdgeIDByKey(%q) = %d, %v; want %d", key, got, ok, id)
		}
		if want, _ := json.Marshal(key); !bytes.Equal(g.AppendEdgeKeyJSON(nil, id), want) {
			t.Fatalf("edge %d key JSON %s, want %s", id, g.AppendEdgeKeyJSON(nil, id), want)
		}
		src, dst := g.Endpoints(id)
		out[src] = append(out[src], key)
		in[dst] = append(in[dst], key)
	}
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		key := g.NodeKey(id)
		if got, ok := g.NodeIDByKey(key); !ok || got != id {
			t.Fatalf("NodeIDByKey(%q) = %d, %v; want %d", key, got, ok, id)
		}
		if _, ok := g.EdgeIDByKey(key); ok {
			t.Fatalf("key %q names a node and an edge", key)
		}
		if want, _ := json.Marshal(key); !bytes.Equal(g.AppendNodeKeyJSON(nil, id), want) {
			t.Fatalf("node %d key JSON %s, want %s", id, g.AppendNodeKeyJSON(nil, id), want)
		}
		checkRuns(t, "out", g, g.OutRuns(id), out[id], true)
		checkRuns(t, "in", g, g.InRuns(id), in[id], false)
	}
	if st := g.Stats(); st.Nodes != g.NumNodes() || st.Edges != g.NumEdges() {
		t.Fatalf("Stats count %d nodes, %d edges; the graph has %d, %d", st.Nodes, st.Edges, g.NumNodes(), g.NumEdges())
	}
}

// FuzzReadSnapshot: any bytes decode to an error wrapping
// ErrSnapshotCorrupt or to a graph whose keys, key JSON and adjacency
// hold up (checkRecovered), and which encodes back to the bytes it came
// from. Each input runs as given, where the checksums reject almost any
// change, and with its checksums recomputed, so the column validation
// behind them sees fuzzed payloads too.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(mustEncodeSnapshot(f, 1, figure1(f)))
	for _, seed := range columnSeeds {
		in := fuzzBytes(seed)
		g, _, _, _ := fuzzGraph(f, &in)
		f.Add(mustEncodeSnapshot(f, 2, g))
	}
	f.Add(append([]byte("PASNAP\x01\x00\x05\x00\x00\x00\x00\x00\x00\x00"), `{"nodes":[{"key":"a"}],"edges":[{"key":"e","src":"a","dst":"a"}]}`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resum(data)} {
			g, epoch, err := decodeSnapshot(in)
			if err != nil {
				if !errors.Is(err, ErrSnapshotCorrupt) {
					t.Fatalf("error %v does not wrap ErrSnapshotCorrupt", err)
				}
				continue
			}
			checkRecovered(t, g)
			enc := mustEncodeSnapshot(t, epoch, g)
			if string(in[:8]) == snapMagic && !bytes.Equal(enc, in) {
				t.Fatalf("snapshot re-encodes differently:\n in  %x\n out %x", in, enc)
			}
			back, _, err := decodeSnapshot(enc)
			if err != nil {
				t.Fatalf("re-encoded snapshot fails to decode: %v", err)
			}
			if again := mustEncodeSnapshot(t, epoch, back); !bytes.Equal(again, enc) {
				t.Fatalf("encoding is not a fixpoint:\n first  %x\n second %x", enc, again)
			}
		}
	})
}
