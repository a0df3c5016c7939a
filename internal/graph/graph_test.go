package graph

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

func buildSample(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("n1", "Person", Props("name", "Moe", "age", 40))
	b.AddNode("n2", "Person", Props("name", "Apu"))
	b.AddNode("n3", "Message", Props("content", "hi", "score", 4.5))
	b.AddEdge("e1", "n1", "n2", "Knows", Props("since", 2010))
	b.AddEdge("e2", "n1", "n3", "Likes", nil)
	b.AddEdge("e3", "n3", "n2", "Has_creator", nil)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderCounts(t *testing.T) {
	g := buildSample(t)
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestNodeLookup(t *testing.T) {
	g := buildSample(t)
	n, ok := g.NodeByKey("n1")
	if !ok {
		t.Fatal("NodeByKey(n1) not found")
	}
	if n.Label != "Person" {
		t.Errorf("label = %q, want Person", n.Label)
	}
	if got := g.NodeProp(n.ID, "name"); got.Str() != "Moe" {
		t.Errorf("name = %v, want Moe", got)
	}
	if got := g.NodeProp(n.ID, "missing"); !got.IsNull() {
		t.Errorf("missing prop = %v, want null", got)
	}
	if _, ok := g.NodeByKey("nope"); ok {
		t.Error("NodeByKey(nope) should not be found")
	}
}

func TestEdgeLookupAndEndpoints(t *testing.T) {
	g := buildSample(t)
	e, ok := g.EdgeByKey("e1")
	if !ok {
		t.Fatal("EdgeByKey(e1) not found")
	}
	src, dst := g.Endpoints(e.ID)
	if g.Node(src).Key != "n1" || g.Node(dst).Key != "n2" {
		t.Errorf("endpoints = %s→%s, want n1→n2", g.Node(src).Key, g.Node(dst).Key)
	}
	if got := g.EdgeProp(e.ID, "since"); got.Int() != 2010 {
		t.Errorf("since = %v, want 2010", got)
	}
}

func TestAdjacency(t *testing.T) {
	g := buildSample(t)
	n1, _ := g.NodeByKey("n1")
	if got := len(g.Out(n1.ID)); got != 2 {
		t.Errorf("out-degree of n1 = %d, want 2", got)
	}
	n2, _ := g.NodeByKey("n2")
	if got := len(g.In(n2.ID)); got != 2 {
		t.Errorf("in-degree of n2 = %d, want 2", got)
	}
	if got := len(g.Out(n2.ID)); got != 0 {
		t.Errorf("out-degree of n2 = %d, want 0", got)
	}
}

// TestSymbolTable checks the interned edge-label symbol table: dense,
// lexicographically ordered, with "" interned for unlabelled edges.
func TestSymbolTable(t *testing.T) {
	b := NewBuilder()
	b.AddNode("n1", "", nil)
	b.AddNode("n2", "", nil)
	b.AddEdge("e1", "n1", "n2", "Knows", nil)
	b.AddEdge("e2", "n1", "n2", "", nil) // unlabelled: λ partial
	b.AddEdge("e3", "n2", "n1", "Likes", nil)
	b.AddEdge("e4", "n1", "n2", "Knows", nil)
	g := b.MustBuild()
	if got := g.NumSymbols(); got != 3 {
		t.Fatalf("NumSymbols = %d, want 3 (\"\", Knows, Likes)", got)
	}
	for i, want := range []string{"", "Knows", "Likes"} {
		if got := g.SymbolOf(want); got != SymbolID(i) {
			t.Errorf("SymbolOf(%q) = %d, want %d", want, got, i)
		}
	}
	if got := g.SymbolOf("Nope"); got != NoSymbol {
		t.Errorf("SymbolOf(Nope) = %d, want NoSymbol", got)
	}
	for _, tc := range []struct {
		key  string
		want string
	}{{"e1", "Knows"}, {"e2", ""}, {"e3", "Likes"}, {"e4", "Knows"}} {
		e, _ := g.EdgeByKey(tc.key)
		if got, want := runSymbol(g, e), g.SymbolOf(tc.want); got != want {
			t.Errorf("edge %s sits in the run of symbol %d, want %d (%q)", tc.key, got, want, tc.want)
		}
	}
}

// runSymbol returns the symbol of the out-run of e's source that holds e.
func runSymbol(g *Graph, e Edge) SymbolID {
	adj := g.OutRuns(e.Src)
	for _, r := range adj.Runs {
		for _, id := range adj.Edges[r.Lo:r.Hi] {
			if id == e.ID {
				return r.Sym
			}
		}
	}
	return NoSymbol
}

// TestCSRAdjacency checks the CSR layout invariants: each node's range
// holds exactly its edges, in (symbol, edge ID) order, partitioned into
// label-homogeneous runs, and OutWithSymbol/InWithSymbol answer exactly
// the matching edges.
func TestCSRAdjacency(t *testing.T) {
	b := NewBuilder()
	for _, k := range []string{"a", "b", "c"} {
		b.AddNode(k, "", nil)
	}
	// Interleave labels so ID order differs from (symbol, ID) order.
	b.AddEdge("e0", "a", "b", "Z", nil)
	b.AddEdge("e1", "a", "c", "A", nil)
	b.AddEdge("e2", "a", "b", "Z", nil)
	b.AddEdge("e3", "a", "b", "A", nil)
	b.AddEdge("e4", "b", "c", "Z", nil)
	g := b.MustBuild()
	a, _ := g.NodeByKey("a")

	keys := func(ids []EdgeID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = g.Edge(id).Key
		}
		return out
	}
	if got, want := strings.Join(keys(g.Out(a.ID)), ","), "e1,e3,e0,e2"; got != want {
		t.Errorf("Out(a) = %s, want %s (symbol-major, ID-minor)", got, want)
	}
	runs := g.OutRuns(a.ID).Runs
	if len(runs) != 2 {
		t.Fatalf("OutRuns(a) has %d runs, want 2", len(runs))
	}
	if runs[0].Sym != g.SymbolOf("A") || runs[1].Sym != g.SymbolOf("Z") {
		t.Errorf("run symbols = %d,%d, want A=%d,Z=%d",
			runs[0].Sym, runs[1].Sym, g.SymbolOf("A"), g.SymbolOf("Z"))
	}
	if got, want := strings.Join(keys(g.OutWithSymbol(a.ID, g.SymbolOf("Z"))), ","), "e0,e2"; got != want {
		t.Errorf("OutWithSymbol(a, Z) = %s, want %s", got, want)
	}
	if got := g.OutWithSymbol(a.ID, NoSymbol); got != nil {
		t.Errorf("OutWithSymbol(a, NoSymbol) = %v, want nil", got)
	}
	bNode, _ := g.NodeByKey("b")
	if got, want := strings.Join(keys(g.In(bNode.ID)), ","), "e3,e0,e2"; got != want {
		t.Errorf("In(b) = %s, want %s", got, want)
	}
	if got, want := strings.Join(keys(g.InWithSymbol(bNode.ID, g.SymbolOf("A"))), ","), "e3"; got != want {
		t.Errorf("InWithSymbol(b, A) = %s, want %s", got, want)
	}
	c, _ := g.NodeByKey("c")
	if got := len(g.Out(c.ID)); got != 0 {
		t.Errorf("Out(c) has %d edges, want 0", got)
	}
	if got := len(g.OutRuns(c.ID).Runs); got != 0 {
		t.Errorf("OutRuns(c) has %d runs, want 0", got)
	}
}

func TestLabelIndexes(t *testing.T) {
	g := buildSample(t)
	if got := len(g.NodesWithLabel("Person")); got != 2 {
		t.Errorf("Person nodes = %d, want 2", got)
	}
	if got := len(g.EdgesWithLabel("Knows")); got != 1 {
		t.Errorf("Knows edges = %d, want 1", got)
	}
	if got := len(g.EdgesWithLabel("Nope")); got != 0 {
		t.Errorf("Nope edges = %d, want 0", got)
	}
	want := []string{"Has_creator", "Knows", "Likes", "Message", "Person"}
	got := g.Labels()
	if len(got) != len(want) {
		t.Fatalf("Labels() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Labels()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func(b *Builder)
		want  error
	}{
		{
			name: "duplicate node key",
			build: func(b *Builder) {
				b.AddNode("x", "", nil)
				b.AddNode("x", "", nil)
			},
			want: ErrDuplicateKey,
		},
		{
			name: "duplicate edge key",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddNode("b", "", nil)
				b.AddEdge("e", "a", "b", "", nil)
				b.AddEdge("e", "a", "b", "", nil)
			},
			want: ErrDuplicateKey,
		},
		{
			name: "unknown source",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddEdge("e", "missing", "a", "", nil)
			},
			want: ErrUnknownNode,
		},
		{
			name: "unknown target",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddEdge("e", "a", "missing", "", nil)
			},
			want: ErrUnknownNode,
		},
		{
			name: "node/edge key clash",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddNode("b", "", nil)
				b.AddEdge("a", "a", "b", "", nil)
			},
			want: ErrDuplicateKey,
		},
		{
			name: "duplicate key before unknown node",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddEdge("e", "a", "a", "", nil)
				b.AddEdge("e", "missing", "a", "", nil)
			},
			want: ErrDuplicateKey,
		},
		{
			name: "AddEdgeIDs unknown source",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddEdgeIDs("e", 1, 0, "", nil)
			},
			want: ErrUnknownNode,
		},
		{
			name: "AddEdgeIDs unknown target",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddEdgeIDs("e", 0, 1<<31, "", nil)
			},
			want: ErrUnknownNode,
		},
		{
			name: "AddEdgeIDs node added after the edge",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddEdgeIDs("e", 0, 1, "", nil)
				b.AddNode("b", "", nil)
			},
			want: ErrUnknownNode,
		},
		{
			name: "AddEdgeIDs duplicate edge key",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddNode("b", "", nil)
				b.AddEdgeIDs("e", 0, 1, "", nil)
				b.AddEdgeIDs("e", 1, 0, "", nil)
			},
			want: ErrDuplicateKey,
		},
		{
			name: "AddEdgeIDs node/edge key clash",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddNode("b", "", nil)
				b.AddEdgeIDs("b", 0, 1, "", nil)
			},
			want: ErrDuplicateKey,
		},
		{
			name: "AddEdgeIDs edge/node key clash",
			build: func(b *Builder) {
				b.AddNode("a", "", nil)
				b.AddEdgeIDs("e", 0, 0, "", nil)
				b.AddNode("e", "", nil)
			},
			want: ErrDuplicateKey,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			tc.build(b)
			_, err := b.Build()
			if err == nil {
				t.Fatal("Build succeeded, want error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %q is not %q", err, tc.want)
			}
		})
	}
}

// TestAddEdgeIDsMatchesAddEdge builds one graph twice, its edges named
// once by their endpoints' keys and once by the IDs AddNode returned:
// both must write the same JSON bytes.
func TestAddEdgeIDsMatchesAddEdge(t *testing.T) {
	const nodes = 300
	build := func(byID bool) []byte {
		t.Helper()
		b := NewBuilder()
		ids := make([]NodeID, nodes)
		for i := range ids {
			ids[i] = b.AddNode("n"+strconv.Itoa(i), []string{"A", "B", ""}[i%3], Props("i", i, "s", strconv.Itoa(i*7)))
		}
		for i := 0; i < 4*nodes; i++ {
			src, dst := (i*31)%nodes, (i*17+5)%nodes
			key, label, props := "e"+strconv.Itoa(i), []string{"X", "Y"}[i%2], Props("w", float64(i)/4)
			if byID {
				b.AddEdgeIDs(key, ids[src], ids[dst], label, props)
			} else {
				b.AddEdge(key, "n"+strconv.Itoa(src), "n"+strconv.Itoa(dst), label, props)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("Build (byID %v): %v", byID, err)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	if byKey, byID := build(false), build(true); !bytes.Equal(byKey, byID) {
		t.Errorf("AddEdgeIDs wrote %d JSON bytes unlike AddEdge's %d", len(byID), len(byKey))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := buildSample(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	n, ok := g2.NodeByKey("n1")
	if !ok {
		t.Fatal("n1 lost in round trip")
	}
	if got := g2.NodeProp(n.ID, "age"); got.Int() != 40 {
		t.Errorf("age after round trip = %v, want 40", got)
	}
	m, _ := g2.NodeByKey("n3")
	if got := g2.NodeProp(m.ID, "score"); got.Float() != 4.5 {
		t.Errorf("score after round trip = %v, want 4.5", got)
	}
	e, _ := g2.EdgeByKey("e1")
	if got := g2.EdgeProp(e.ID, "since"); got.Int() != 2010 {
		t.Errorf("since after round trip = %v, want 2010", got)
	}
}

// TestDeltaViewJSON: a delta view writes its live objects — what its
// compaction writes, and what reads back to the same graph.
func TestDeltaViewJSON(t *testing.T) {
	s := NewStore(buildSample(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	if _, err := s.Apply(Batch{Ops: []Op{
		{Kind: OpAddNode, Key: "n4", Label: "Person", Props: Props("name", "Lisa", "age", 8)},
		{Kind: OpAddEdge, Key: "e4", Src: "n4", Dst: "n1", Label: "Knows", Props: Props("since", 2020)},
		{Kind: OpDelEdge, Key: "e2"},
		{Kind: OpDelNode, Key: "n2"},
	}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	write := func(g *Graph) string {
		t.Helper()
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.String()
	}
	delta := s.Graph()
	got := write(delta)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if want := write(s.Graph()); got != want {
		t.Fatalf("delta view writes\n%s\nits compaction writes\n%s", got, want)
	}
	back, err := ReadJSON(strings.NewReader(got))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if again := write(back); again != got {
		t.Fatalf("read back, the delta view's JSON writes\n%s\nwant\n%s", again, got)
	}
	if back.LiveNodes() != delta.LiveNodes() || back.LiveEdges() != delta.LiveEdges() {
		t.Fatalf("read back %d nodes, %d edges; the delta view has %d, %d",
			back.LiveNodes(), back.LiveEdges(), delta.LiveNodes(), delta.LiveEdges())
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"nodes":[{"key":"a"}],"edges":[{"key":"e","src":"a","dst":"zzz"}]}`,
		`{"nodes":[{"key":"a","props":{"p":{"kind":"alien"}}}],"edges":[]}`,
		`{"nodes":[{"key":"a","props":{"p":{"kind":"int"}}}],"edges":[]}`,
	}
	for i, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: ReadJSON succeeded, want error", i)
		}
	}
}

// FuzzReadJSON: for any bytes, ReadJSON returns an error or a graph whose
// JSON reads back to itself — WriteJSON → ReadJSON → WriteJSON is a
// fixpoint — and whose key tables find every key at its ID.
func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"key":"n1","label":"Person","props":{"age":{"kind":"int","int":40},"name":{"kind":"string","str":"Moe"}}},` +
		`{"key":"n2","props":{"score":{"kind":"float","float":4.5}}}],"edges":[{"key":"e1","src":"n1","dst":"n2","label":"Knows"}]}`))
	f.Add([]byte(`{"nodes":[{"key":"a<b>"},{"key":"\"\\"},{"key":"\u0000\u2028"},{"key":"a` + "\xff" + `"},{"key":""}],` +
		`"edges":[{"key":"e&","src":"a<b>","dst":"","label":"L","props":{"w":{"kind":"float","float":-0}}}]}`))
	f.Add([]byte(`{"nodes":[{"key":"a"},{"key":"a"}],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"key":"a","props":{"p":{"kind":"null"},"q":{"kind":"bool","bool":true}}}],"edges":[{"key":"a","src":"a","dst":"a"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of an accepted graph: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON of WriteJSON's output: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteJSON(&second); err != nil {
			t.Fatalf("WriteJSON of the graph read back: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("read back, the graph writes\n%s\nwant\n%s", second.Bytes(), first.Bytes())
		}
		for i := 0; i < g.NumNodes(); i++ {
			if id, ok := g.NodeIDByKey(g.NodeKey(NodeID(i))); !ok || id != NodeID(i) {
				t.Fatalf("NodeIDByKey(%q) = %d, %v; want %d, true", g.NodeKey(NodeID(i)), id, ok, i)
			}
		}
		for i := 0; i < g.NumEdges(); i++ {
			if id, ok := g.EdgeIDByKey(g.EdgeKey(EdgeID(i))); !ok || id != EdgeID(i) {
				t.Fatalf("EdgeIDByKey(%q) = %d, %v; want %d, true", g.EdgeKey(EdgeID(i)), id, ok, i)
			}
		}
	})
}

func TestPropsHelper(t *testing.T) {
	m := Props("s", "str", "i", 7, "i64", int64(8), "f", 1.5, "b", true, "v", IntValue(9))
	if m["s"].Str() != "str" || m["i"].Int() != 7 || m["i64"].Int() != 8 ||
		m["f"].Float() != 1.5 || !m["b"].Bool() || m["v"].Int() != 9 {
		t.Errorf("Props built %v", m)
	}
	for _, bad := range []func(){
		func() { Props("odd") },
		func() { Props(1, 2) },
		func() { Props("k", struct{}{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Props should panic on invalid input")
				}
			}()
			bad()
		}()
	}
}
