package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// seedGraph builds a small two-label graph: persons a,b,c in a Knows
// chain a→b→c with a Likes edge a→c.
func seedGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddNode("a", "Person", Props("name", "A"))
	b.AddNode("b", "Person", Props("name", "B"))
	b.AddNode("c", "Person", Props("name", "C"))
	b.AddEdge("ab", "a", "b", "Knows", nil)
	b.AddEdge("bc", "b", "c", "Knows", nil)
	b.AddEdge("ac", "a", "c", "Likes", nil)
	return b.MustBuild()
}

func mustApply(t *testing.T, s *Store, ops ...Op) uint64 {
	t.Helper()
	epoch, err := s.Apply(Batch{Ops: ops})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return epoch
}

// outKeys renders n's out-neighborhood restricted to label as edge keys —
// the byte-identity currency of the differential tests (IDs shift across
// rebuilds, keys never do).
func outKeys(g *Graph, nodeKey, label string) []string {
	n, ok := g.NodeByKey(nodeKey)
	if !ok {
		return nil
	}
	var keys []string
	for _, e := range g.OutWithSymbol(n.ID, g.SymbolOf(label)) {
		keys = append(keys, g.Edge(e).Key)
	}
	return keys
}

// TestStoreApplyVisibility: applied ops are visible through every epoch
// accessor — key maps, adjacency, label indexes — including ops that
// reference objects added earlier in the same batch.
func TestStoreApplyVisibility(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()

	epoch := mustApply(t, s,
		Op{Kind: OpAddNode, Key: "d", Label: "Person", Props: Props("name", "D")},
		Op{Kind: OpAddEdge, Key: "cd", Src: "c", Dst: "d", Label: "Knows"},
		Op{Kind: OpAddEdge, Key: "da", Src: "d", Dst: "a", Label: "Knows"},
	)
	if epoch != 1 || s.Epoch() != 1 {
		t.Fatalf("epoch = %d / %d, want 1", epoch, s.Epoch())
	}
	g := s.Graph()
	if g.LiveNodes() != 4 || g.LiveEdges() != 5 {
		t.Fatalf("live counts = %d/%d, want 4/5", g.LiveNodes(), g.LiveEdges())
	}
	d, ok := g.NodeByKey("d")
	if !ok || d.Label != "Person" {
		t.Fatalf("NodeByKey(d) = %v, %v", d, ok)
	}
	if got := outKeys(g, "c", "Knows"); !reflect.DeepEqual(got, []string{"cd"}) {
		t.Fatalf("out(c, Knows) = %v, want [cd]", got)
	}
	if got := outKeys(g, "d", "Knows"); !reflect.DeepEqual(got, []string{"da"}) {
		t.Fatalf("out(d, Knows) = %v, want [da]", got)
	}
	persons := g.NodesWithLabel("Person")
	if len(persons) != 4 {
		t.Fatalf("NodesWithLabel(Person) = %d nodes, want 4", len(persons))
	}
	if len(g.EdgesWithLabel("Knows")) != 4 {
		t.Fatalf("EdgesWithLabel(Knows) = %d, want 4", len(g.EdgesWithLabel("Knows")))
	}
}

// TestStoreDeleteCascade: deleting a node kills its incident edges, and
// adjacency of the surviving endpoints is rebuilt without them.
func TestStoreDeleteCascade(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()

	mustApply(t, s, Op{Kind: OpDelNode, Key: "c"})
	g := s.Graph()
	if g.LiveNodes() != 2 || g.LiveEdges() != 1 {
		t.Fatalf("live counts after del = %d/%d, want 2/1", g.LiveNodes(), g.LiveEdges())
	}
	if _, ok := g.NodeByKey("c"); ok {
		t.Fatal("NodeByKey(c) still resolves after delete")
	}
	for _, key := range []string{"bc", "ac"} {
		if _, ok := g.EdgeByKey(key); ok {
			t.Fatalf("EdgeByKey(%s) survived its endpoint's deletion", key)
		}
	}
	if got := outKeys(g, "b", "Knows"); got != nil {
		t.Fatalf("out(b, Knows) = %v, want empty", got)
	}
	if got := outKeys(g, "a", "Knows"); !reflect.DeepEqual(got, []string{"ab"}) {
		t.Fatalf("out(a, Knows) = %v, want [ab]", got)
	}
	if got := outKeys(g, "a", "Likes"); got != nil {
		t.Fatalf("out(a, Likes) = %v, want empty", got)
	}
}

// TestStoreKeyReuse: a deleted key can be re-added (a fresh object under
// a fresh ID); a live key cannot.
func TestStoreKeyReuse(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()

	mustApply(t, s, Op{Kind: OpDelEdge, Key: "ab"})
	mustApply(t, s, Op{Kind: OpAddEdge, Key: "ab", Src: "b", Dst: "a", Label: "Knows"})
	g := s.Graph()
	e, ok := g.EdgeByKey("ab")
	if !ok {
		t.Fatal("re-added edge key does not resolve")
	}
	if src, dst := g.Node(e.Src).Key, g.Node(e.Dst).Key; src != "b" || dst != "a" {
		t.Fatalf("re-added ab runs %s→%s, want b→a", src, dst)
	}
	if _, err := s.Apply(Batch{Ops: []Op{{Kind: OpAddEdge, Key: "ab", Src: "a", Dst: "b", Label: "Knows"}}}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("re-adding a live key: err = %v, want ErrDuplicateKey", err)
	}
}

// TestStoreTypedErrors: Apply wraps the typed sentinels and a failed
// batch applies nothing (atomicity).
func TestStoreTypedErrors(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()

	cases := []struct {
		name string
		ops  []Op
		want error
	}{
		{"dup node", []Op{{Kind: OpAddNode, Key: "a", Label: "Person"}}, ErrDuplicateKey},
		{"dup edge", []Op{{Kind: OpAddEdge, Key: "ab", Src: "a", Dst: "b", Label: "Knows"}}, ErrDuplicateKey},
		{"node key vs edge key", []Op{{Kind: OpAddNode, Key: "ab", Label: "Person"}}, ErrDuplicateKey},
		{"unknown src", []Op{{Kind: OpAddEdge, Key: "zz", Src: "zebra", Dst: "a", Label: "Knows"}}, ErrUnknownNode},
		{"unknown dst", []Op{{Kind: OpAddEdge, Key: "zz", Src: "a", Dst: "zebra", Label: "Knows"}}, ErrUnknownNode},
		{"del unknown node", []Op{{Kind: OpDelNode, Key: "zebra"}}, ErrUnknownKey},
		{"del unknown edge", []Op{{Kind: OpDelEdge, Key: "zebra"}}, ErrUnknownKey},
		// A valid op before the failing one must not leak out of the batch.
		{"atomic", []Op{
			{Kind: OpAddNode, Key: "ghost", Label: "Person"},
			{Kind: OpDelNode, Key: "zebra"},
		}, ErrUnknownKey},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Apply(Batch{Ops: tc.ops}); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	if s.Epoch() != 0 || s.Graph().LiveNodes() != 3 {
		t.Fatalf("failed batches moved the store: epoch=%d nodes=%d", s.Epoch(), s.Graph().LiveNodes())
	}
	if _, ok := s.Graph().NodeByKey("ghost"); ok {
		t.Fatal("prefix of a failed batch leaked into the store")
	}
}

// TestBuilderTypedErrors: the Build/CSV validation errors are errors.Is-
// able with the same sentinels the ingest endpoint maps to 422.
func TestBuilderTypedErrors(t *testing.T) {
	dup := NewBuilder()
	dup.AddNode("a", "P", nil)
	dup.AddNode("a", "P", nil)
	if _, err := dup.Build(); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate node: err = %v, want ErrDuplicateKey", err)
	}
	unk := NewBuilder()
	unk.AddNode("a", "P", nil)
	unk.AddEdge("e", "a", "missing", "L", nil)
	if _, err := unk.Build(); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown target: err = %v, want ErrUnknownNode", err)
	}
}

// TestStoreCompactionEquivalence: compaction preserves the epoch number
// and produces a graph whose rendered structure matches a from-scratch
// build over the same live objects.
func TestStoreCompactionEquivalence(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()

	mustApply(t, s,
		Op{Kind: OpAddNode, Key: "d", Label: "Person"},
		Op{Kind: OpAddEdge, Key: "cd", Src: "c", Dst: "d", Label: "Knows"},
	)
	mustApply(t, s, Op{Kind: OpDelEdge, Key: "ab"})
	live := s.Graph()
	epoch := s.Epoch()

	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	sealed := s.Graph()
	if sealed.ov != nil {
		t.Fatal("compaction left a delta view")
	}
	if s.Epoch() != epoch {
		t.Fatalf("compaction changed the epoch: %d → %d", epoch, s.Epoch())
	}

	scratch := NewBuilder()
	for _, n := range live.Nodes() {
		scratch.AddNode(n.Key, n.Label, n.Props)
	}
	for _, e := range live.Edges() {
		scratch.AddEdge(e.Key, live.Node(e.Src).Key, live.Node(e.Dst).Key, e.Label, e.Props)
	}
	want := scratch.MustBuild()

	if got, w := renderAdjacency(sealed), renderAdjacency(want); got != w {
		t.Fatalf("compacted adjacency differs from from-scratch build:\n got %s\nwant %s", got, w)
	}
	if got, w := renderAdjacency(live), renderAdjacency(want); got != w {
		t.Fatalf("pre-compaction delta view differs from from-scratch build:\n got %s\nwant %s", got, w)
	}
}

// renderAdjacency serializes a graph's live structure in key space:
// nodes in key-sorted order with their per-label out-edge key lists.
func renderAdjacency(g *Graph) string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "%s[%s]:", n.Key, n.Label)
		adj := g.OutRuns(n.ID)
		for _, r := range adj.Runs {
			fmt.Fprintf(&sb, " %s(", g.EdgeLabel(adj.Edges[r.Lo]))
			for i := r.Lo; i < r.Hi; i++ {
				fmt.Fprintf(&sb, "%s→%s,", g.EdgeKey(adj.Edges[i]), g.NodeKey(adj.Nbrs[i]))
			}
			sb.WriteString(")")
		}
		sb.WriteString("; ")
	}
	return sb.String()
}

// TestStoreNewLabelReseals: a batch introducing an unseen edge label
// reseals inline — the published epoch is a sealed CSR that knows the
// new symbol, and discovery order matches a from-scratch build.
func TestStoreNewLabelReseals(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()

	before := s.Compactions()
	mustApply(t, s, Op{Kind: OpAddEdge, Key: "follows-ab", Src: "a", Dst: "b", Label: "Follows"})
	g := s.Graph()
	if g.ov != nil {
		t.Fatal("new-label batch did not reseal")
	}
	if s.Compactions() != before+1 {
		t.Fatalf("reseal not counted as compaction: %d → %d", before, s.Compactions())
	}
	if g.SymbolOf("Follows") == NoSymbol {
		t.Fatal("new label has no symbol after reseal")
	}
	if got := outKeys(g, "a", "Follows"); !reflect.DeepEqual(got, []string{"follows-ab"}) {
		t.Fatalf("out(a, Follows) = %v", got)
	}
}

// TestStoreAutoCompaction: crossing the threshold hands the delta to the
// background compactor, which publishes a sealed graph under the same
// epoch.
func TestStoreAutoCompaction(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: 3})
	defer s.Close()

	mustApply(t, s, Op{Kind: OpAddNode, Key: "x1", Label: "Person"})
	if s.Graph().ov == nil {
		t.Fatal("compacted below threshold")
	}
	epoch := mustApply(t, s,
		Op{Kind: OpAddNode, Key: "x2", Label: "Person"},
		Op{Kind: OpAddEdge, Key: "xx", Src: "x1", Dst: "x2", Label: "Knows"},
	)
	for deadline := time.Now().Add(10 * time.Second); s.Graph().ov != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("delta size %d ≥ threshold 3 but no compaction within 10s", s.DeltaSize())
		}
	}
	if g, e := s.Current(); e != epoch || g.NodeKey(NodeID(g.NumNodes()-1)) != "x2" {
		t.Fatalf("compacted epoch %d, last node %q; want epoch %d, last node x2", e, g.NodeKey(NodeID(g.NumNodes()-1)), epoch)
	}
	if s.DeltaSize() != 0 || s.Compactions() != 1 {
		t.Fatalf("after compaction: DeltaSize %d, Compactions %d; want 0 and 1", s.DeltaSize(), s.Compactions())
	}
}

// TestStoreKeepsUnchangedPatches: a batch publishes a new patch only for
// the nodes whose edge set it changed. Here one batch appends an edge and
// deletes it again, and deletes a base node and an appended node that
// have no live edge; those four nodes keep the patch pointers of the
// previous epoch (nil where they read the base range), and the delta
// view's adjacency equals a Build of its live objects.
func TestStoreKeepsUnchangedPatches(t *testing.T) {
	b := NewBuilder()
	for _, k := range []string{"a", "b", "c", "d"} {
		b.AddNode(k, "Person", nil)
	}
	b.AddEdge("ab", "a", "b", "Knows", nil)
	s := NewStore(b.MustBuild(), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	mustApply(t, s,
		Op{Kind: OpAddNode, Key: "e", Label: "Person"},
		Op{Kind: OpAddEdge, Key: "ba", Src: "b", Dst: "a", Label: "Knows"},
	)
	prev := s.Graph()
	mustApply(t, s,
		Op{Kind: OpAddEdge, Key: "ac", Src: "a", Dst: "c", Label: "Knows"},
		Op{Kind: OpDelEdge, Key: "ac"},
		Op{Kind: OpDelNode, Key: "d"},
		Op{Kind: OpDelNode, Key: "e"},
	)
	g := s.Graph()
	for _, k := range []string{"a", "c", "d", "e"} {
		id, _ := prev.NodeIDByKey(k)
		if g.ov.outPatch.get(uint32(id)) != prev.ov.outPatch.get(uint32(id)) ||
			g.ov.inPatch.get(uint32(id)) != prev.ov.inPatch.get(uint32(id)) {
			t.Errorf("node %s: the batch left its edges as they were but published a new patch", k)
		}
	}
	want, err := replayRebuild(g)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := renderLive(g), renderLive(want); got != w {
		t.Fatalf("delta view differs from a Build of its live objects:\n got %s\nwant %s", got, w)
	}
}

// TestStoreSnapshotPinning: every graph Current returns survives later
// batches and compactions untouched, although successive delta views
// share their appended rows, patch chunks and table leaves. A seeded
// sequence of 200 batches — adds, edge deletes, cascading node deletes,
// keys deleted and added again, one new edge label that reseals, a
// compaction every 25 batches — holds every 5th epoch's graph, renders it
// whole when it is published and again after the last batch.
func TestStoreSnapshotPinning(t *testing.T) {
	q := &foldSeq{rng: rand.New(rand.NewSource(7)), ends: map[string][2]string{}}
	s := NewStore(foldBase(q), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	var keys []string // every key the sequence may use, base keys included
	for k := 1; k <= 1000; k++ {
		keys = append(keys, fmt.Sprintf("k%d", k))
	}
	type held struct {
		g    *Graph
		want string
	}
	var pinned []held
	reseals := s.Compactions()
	for i := 1; i <= 200; i++ {
		b := q.batch(0) // epoch 0 never reseals (foldSeq.batch)
		if i == 102 {
			b.Ops = append(b.Ops, q.addEdge("reseal"))
		}
		mustApply(t, s, b.Ops...)
		if i%5 == 0 {
			g, epoch := s.Current()
			if epoch != uint64(i) {
				t.Fatalf("Current epoch = %d, want %d", epoch, i)
			}
			pinned = append(pinned, held{g, renderEpoch(g, keys)})
		}
		if i%25 == 0 {
			if err := s.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	if got := s.Compactions() - reseals; got != 9 { // 8 compactions and the reseal
		t.Fatalf("%d compactions and reseals, want 9", got)
	}
	if q.next > len(keys) {
		t.Fatalf("the sequence used %d keys, more than the %d rendered", q.next, len(keys))
	}
	if q.Reused == 0 || q.SameBatch == 0 {
		t.Fatalf("the sequence reused no key or added and deleted nothing in one batch: %+v", q.foldCoverage)
	}
	for i, p := range pinned {
		if got := renderEpoch(p.g, keys); got != p.want {
			t.Fatalf("epoch %d changed under later writes:\n got %s\nwant %s", 5*(i+1), got, p.want)
		}
	}
	if cur, _ := s.Current(); cur == pinned[len(pinned)-1].g {
		t.Fatal("Current still returns the last pinned graph after a compaction")
	}
}

// renderEpoch renders everything a reader can see of g: both adjacencies
// and the liveness of every ID in its ID space, the ID of every key in
// keys, the label lists, the live counts and the "id" postings.
func renderEpoch(g *Graph, keys []string) string {
	var sb strings.Builder
	sb.WriteString(renderLive(g))
	fmt.Fprintf(&sb, "live %d nodes, %d edges\n", g.LiveNodes(), g.LiveEdges())
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		fmt.Fprintf(&sb, "node %d %v out %v in %v\n", id, g.NodeAlive(id), g.OutRuns(id), g.InRuns(id))
	}
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		fmt.Fprintf(&sb, "edge %d %v\n", id, g.EdgeAlive(id))
	}
	for _, k := range keys {
		n, nok := g.NodeIDByKey(k)
		e, eok := g.EdgeIDByKey(k)
		fmt.Fprintf(&sb, "key %s node %d %v edge %d %v\n", k, n, nok, e, eok)
	}
	for _, l := range g.Labels() {
		fmt.Fprintf(&sb, "label %s %v %v\n", l, g.NodesWithLabel(l), g.EdgesWithLabel(l))
	}
	for v := int64(0); v < 100; v++ {
		ids, ok := g.NodesWithProp("id", IntValue(v))
		fmt.Fprintf(&sb, "id=%d %v %v\n", v, ids, ok)
	}
	return sb.String()
}

// TestStoreCurrentConsistent: Current returns a graph and epoch number of
// the same published state while one writer applies batches and the
// background compactor swaps in sealed graphs. Every batch adds one node,
// so a torn pair breaks LiveNodes == base + epoch.
func TestStoreCurrentConsistent(t *testing.T) {
	const batches, readers = 200, 4
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: 8})
	defer s.Close()
	base := s.Graph().LiveNodes()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, epoch := s.Current()
				if got, want := g.LiveNodes(), base+int(epoch); got != want {
					errs <- fmt.Errorf("Current: epoch %d with %d live nodes, want %d", epoch, got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < batches; i++ {
		if _, err := s.Apply(Batch{Ops: []Op{{Kind: OpAddNode, Key: fmt.Sprintf("n%d", i), Label: "Person"}}}); err != nil {
			t.Errorf("Apply: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStoreValidAt: the label clock invalidates exactly the footprints a
// batch's touched labels cover.
func TestStoreValidAt(t *testing.T) {
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()

	knowsFp := Footprint{EdgeLabels: []string{"Knows"}}
	likesFp := Footprint{EdgeLabels: []string{"Likes"}}
	allEdgesFp := Footprint{AllEdges: true}
	personFp := Footprint{NodeLabels: []string{"Person"}}

	// Epoch 1 touches only Knows.
	mustApply(t, s, Op{Kind: OpAddEdge, Key: "ba", Src: "b", Dst: "a", Label: "Knows"})
	if s.ValidAt(knowsFp, 0) {
		t.Fatal("Knows result from epoch 0 still valid after a Knows write")
	}
	if !s.ValidAt(likesFp, 0) {
		t.Fatal("Likes result invalidated by a Knows-only write")
	}
	if s.ValidAt(allEdgesFp, 0) {
		t.Fatal("AllEdges result survived an edge write")
	}
	if !s.ValidAt(personFp, 0) {
		t.Fatal("node-label result invalidated by an edge-only write")
	}
	if !s.ValidAt(knowsFp, 1) {
		t.Fatal("Knows result computed at epoch 1 reported stale")
	}

	// Epoch 2 deletes a Person node, cascading a Likes and Knows edge.
	mustApply(t, s, Op{Kind: OpDelNode, Key: "a"})
	if s.ValidAt(personFp, 1) || s.ValidAt(likesFp, 1) {
		t.Fatal("node delete failed to invalidate touched footprints")
	}

	// Compaction must not invalidate anything: same epoch, same clock.
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !s.ValidAt(personFp, 2) || !s.ValidAt(allEdgesFp, 2) {
		t.Fatal("compaction invalidated current-epoch results")
	}
}
