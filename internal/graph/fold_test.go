package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// replayRebuild is the fold's oracle: it replays the live nodes and
// edges of g, in ID order, through a Builder as rows — what Rebuild's
// promise is stated against.
func replayRebuild(g *Graph) (*Graph, error) {
	b := NewBuilder()
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.NodeAlive(id) {
			n := g.Node(id)
			b.AddNode(n.Key, n.Label, n.Props)
		}
	}
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		if g.EdgeAlive(id) {
			e := g.Edge(id)
			b.AddEdge(e.Key, g.NodeKey(e.Src), g.NodeKey(e.Dst), e.Label, e.Props)
		}
	}
	return b.Build()
}

// checkFold checks that Rebuild of g writes the same snapshot bytes as
// the row replay of g.
func checkFold(t *testing.T, stage string, g *Graph) {
	t.Helper()
	want, err := replayRebuild(g)
	if err != nil {
		t.Fatalf("%s: replay: %v", stage, err)
	}
	got, err := g.Rebuild()
	if err != nil {
		t.Fatalf("%s: Rebuild: %v", stage, err)
	}
	gb, err := encodeSnapshot(1, got)
	if err != nil {
		t.Fatalf("%s: encodeSnapshot(Rebuild()): %v", stage, err)
	}
	wb, err := encodeSnapshot(1, want)
	if err != nil {
		t.Fatalf("%s: encodeSnapshot(replay): %v", stage, err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: the fold's snapshot (%d bytes) differs from the replay's (%d bytes) at byte %d",
			stage, len(gb), len(wb), firstDiff(gb, wb))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// renderLive writes what a delta view publishes of its label indexes and
// adjacency, in key space: each label's live objects in ID order, and
// each live node's runs in both directions, labelled, with every edge
// beside its far end.
func renderLive(g *Graph) string {
	var sb strings.Builder
	for _, l := range g.Labels() {
		fmt.Fprintf(&sb, "label %q: nodes", l)
		for _, id := range g.NodesWithLabel(l) {
			fmt.Fprintf(&sb, " %q", g.NodeKey(id))
		}
		sb.WriteString("; edges")
		for _, id := range g.EdgesWithLabel(l) {
			fmt.Fprintf(&sb, " %q", g.EdgeKey(id))
		}
		sb.WriteString("\n")
	}
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if !g.NodeAlive(id) {
			continue
		}
		fmt.Fprintf(&sb, "%q", g.NodeKey(id))
		for _, adj := range []Adjacency{g.OutRuns(id), g.InRuns(id)} {
			sb.WriteString(" |")
			for _, r := range adj.Runs {
				fmt.Fprintf(&sb, " %q(", g.EdgeLabel(adj.Edges[r.Lo]))
				for i := r.Lo; i < r.Hi; i++ {
					fmt.Fprintf(&sb, "%q→%q,", g.EdgeKey(adj.Edges[i]), g.NodeKey(adj.Nbrs[i]))
				}
				sb.WriteString(")")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// foldSeq drives one seeded sequence of batches against a store.
type foldSeq struct {
	rng   *rand.Rand
	nodes []string // live node keys, in insertion order
	edges []string // live edge keys
	ends  map[string][2]string
	dead  []string // keys of deleted objects, free for reuse
	next  int
	foldCoverage
}

// foldCoverage counts the cases the sequences reached.
type foldCoverage struct {
	Reseals, Reused, SelfLoops, SameBatch, GoneLabel int
}

var (
	foldNodeLabels = []string{"A", "B", "", "Ω"}
	foldEdgeLabels = []string{"knows", "likes", "", "zz"}
)

func (q *foldSeq) key() string {
	if len(q.dead) > 0 && q.rng.Intn(3) == 0 {
		i := q.rng.Intn(len(q.dead))
		k := q.dead[i]
		q.dead = append(q.dead[:i], q.dead[i+1:]...)
		q.Reused++
		return k
	}
	q.next++
	return fmt.Sprintf("k%d", q.next)
}

func (q *foldSeq) props() map[string]Value {
	p := map[string]Value{}
	if q.rng.Intn(2) == 0 {
		p["id"] = IntValue(int64(q.rng.Intn(100)))
	}
	if q.rng.Intn(2) == 0 {
		p["name"] = StringValue(fmt.Sprintf("s%d", q.rng.Intn(50)))
	}
	if q.rng.Intn(4) == 0 {
		p["w"] = FloatValue(q.rng.Float64())
	}
	if q.rng.Intn(6) == 0 {
		p["name"] = Null()
	}
	if len(p) == 0 {
		return nil
	}
	return p
}

func removeKey(keys []string, k string) []string {
	for i, x := range keys {
		if x == k {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

func (q *foldSeq) delNode(k string) Op {
	q.nodes = removeKey(q.nodes, k)
	q.dead = append(q.dead, k)
	for _, e := range append([]string(nil), q.edges...) {
		if end := q.ends[e]; end[0] == k || end[1] == k {
			q.edges = removeKey(q.edges, e)
			q.dead = append(q.dead, e)
		}
	}
	return Op{Kind: OpDelNode, Key: k}
}

func (q *foldSeq) addEdge(label string) Op {
	src, dst := q.nodes[q.rng.Intn(len(q.nodes))], q.nodes[q.rng.Intn(len(q.nodes))]
	if q.rng.Intn(8) == 0 {
		dst = src
	}
	if src == dst {
		q.SelfLoops++
	}
	k := q.key()
	q.edges = append(q.edges, k)
	q.ends[k] = [2]string{src, dst}
	return Op{Kind: OpAddEdge, Key: k, Src: src, Dst: dst, Label: label, Props: q.props()}
}

// batch returns the next random batch.
func (q *foldSeq) batch(epoch int) Batch {
	var ops []Op
	for i, n := 0, 1+q.rng.Intn(8); i < n; i++ {
		switch r := q.rng.Intn(10); {
		case r < 3 || len(q.nodes) < 2:
			k := q.key()
			q.nodes = append(q.nodes, k)
			ops = append(ops, Op{Kind: OpAddNode, Key: k, Label: foldNodeLabels[q.rng.Intn(len(foldNodeLabels))], Props: q.props()})
		case r < 6:
			ops = append(ops, q.addEdge(foldEdgeLabels[q.rng.Intn(len(foldEdgeLabels))]))
		case r < 7 && len(q.edges) > 0:
			k := q.edges[q.rng.Intn(len(q.edges))]
			q.edges = removeKey(q.edges, k)
			q.dead = append(q.dead, k)
			ops = append(ops, Op{Kind: OpDelEdge, Key: k})
		case r < 9:
			ops = append(ops, q.delNode(q.nodes[q.rng.Intn(len(q.nodes))]))
		default:
			// An object added and deleted in one batch, with an edge that
			// the cascade takes.
			k := q.key()
			q.nodes = append(q.nodes, k)
			ops = append(ops, Op{Kind: OpAddNode, Key: k, Label: "A", Props: q.props()})
			e := q.addEdge("knows")
			e.Src = k
			q.ends[e.Key] = [2]string{k, e.Dst}
			ops = append(ops, e, q.delNode(k))
			q.SameBatch++
		}
	}
	if epoch%9 == 4 {
		// A label no edge carries yet, which reseals; "m" sorts between
		// the known symbols, so every later symbol moves.
		q.Reseals++
		ops = append(ops, q.addEdge(fmt.Sprintf("m%d", epoch)))
	}
	return Batch{Ops: ops}
}

// foldBase builds a seeded base graph: the node label "Gone" and the
// property "gone" are held by three nodes each, and the edge label
// "gone" and the edge property "gone" by a self-loop on each "Gone"
// node; the sequence deletes all of them at epoch 5.
func foldBase(q *foldSeq) *Graph {
	b := NewBuilder()
	for i := 0; i < 30; i++ {
		k, label, props := q.key(), foldNodeLabels[q.rng.Intn(len(foldNodeLabels))], q.props()
		if i < 3 {
			label = "Gone"
		}
		if i >= 3 && i < 6 {
			if props == nil {
				props = map[string]Value{}
			}
			props["gone"] = StringValue("bye")
		}
		b.AddNode(k, label, props)
		q.nodes = append(q.nodes, k)
	}
	for _, n := range q.nodes[:3] {
		k := q.key()
		q.edges = append(q.edges, k)
		q.ends[k] = [2]string{n, n}
		b.AddEdge(k, n, n, "gone", Props("gone", 1.5))
	}
	for i := 0; i < 60; i++ {
		op := q.addEdge(foldEdgeLabels[q.rng.Intn(len(foldEdgeLabels))])
		b.AddEdge(op.Key, op.Src, op.Dst, op.Label, op.Props)
	}
	return b.MustBuild()
}

// TestRebuildMatchesReplay drives seeded batch sequences — adds, edge
// deletes, cascading node deletes, key reuse, self-loops, objects added
// and deleted in one batch, node and edge labels and properties whose
// every holder dies, new edge labels that reseal — through a store,
// compacting now and then. At every epoch the delta view's label indexes
// and adjacency, which Apply patches from the previous epoch's, must
// equal a Build of its live objects in key space, and the fold's
// snapshot bytes must equal the row replay's.
func TestRebuildMatchesReplay(t *testing.T) {
	var total foldCoverage
	for seed := int64(1); seed <= 12; seed++ {
		q := &foldSeq{rng: rand.New(rand.NewSource(seed)), ends: map[string][2]string{}}
		s := NewStore(foldBase(q), StoreOptions{CompactThreshold: -1})
		for epoch := 1; epoch <= 40; epoch++ {
			b := q.batch(epoch)
			if epoch == 5 {
				gone := s.Graph()
				for _, k := range append([]string(nil), q.nodes...) {
					id, ok := gone.NodeIDByKey(k)
					if ok && (gone.NodeLabel(id) == "Gone" || !gone.NodeProp(id, "gone").IsNull()) {
						b.Ops = append(b.Ops, q.delNode(k))
					}
				}
			}
			stage := fmt.Sprintf("seed %d epoch %d", seed, epoch)
			if epoch%9 == 4 {
				// The reseal folds the batch's overlay before finalize
				// patches it; fold a private copy the same way.
				ov := overlayFor(s.Graph()).clone()
				if eff, err := ov.applyOps(b); err != nil || !eff.newLabel {
					t.Fatalf("%s: applyOps: %v, new label %v", stage, err, eff != nil && eff.newLabel)
				}
				checkFold(t, stage+" reseal", ov.graph())
			}
			if _, err := s.Apply(b); err != nil {
				t.Fatalf("%s: Apply: %v", stage, err)
			}
			g := s.Graph()
			checkLiveKeys(t, stage, g, q)
			if epoch == 5 && g.ov != nil {
				if len(g.NodesWithLabel("Gone")) != 0 || len(g.EdgesWithLabel("gone")) != 0 {
					t.Fatalf("%s: labels Gone and gone still have holders", stage)
				}
				total.GoneLabel++
			}
			want, err := replayRebuild(g)
			if err != nil {
				t.Fatalf("%s: replay: %v", stage, err)
			}
			if got, w := renderLive(g), renderLive(want); got != w {
				t.Fatalf("%s: delta view differs from a Build of its live objects:\n got %s\nwant %s", stage, got, w)
			}
			checkFold(t, stage, g)
			if epoch%13 == 0 {
				if err := s.Compact(); err != nil {
					t.Fatalf("%s: Compact: %v", stage, err)
				}
			}
		}
		s.Close()
		total.Reseals += q.Reseals
		total.Reused += q.Reused
		total.SelfLoops += q.SelfLoops
		total.SameBatch += q.SameBatch
	}
	t.Logf("coverage: %+v", total)
	if total.Reseals == 0 || total.Reused == 0 || total.SelfLoops == 0 || total.SameBatch == 0 || total.GoneLabel == 0 {
		t.Fatalf("sequences missed a case: %+v", total)
	}
}

// checkLiveKeys checks g's live objects against the sequence's model:
// the same node keys, and the same edge keys between the same nodes.
func checkLiveKeys(t *testing.T, stage string, g *Graph, q *foldSeq) {
	t.Helper()
	var nodes, edges, want []string
	for _, n := range g.Nodes() {
		nodes = append(nodes, n.Key)
	}
	for _, e := range g.Edges() {
		edges = append(edges, e.Key+":"+g.NodeKey(e.Src)+"→"+g.NodeKey(e.Dst))
	}
	for _, e := range q.edges {
		want = append(want, e+":"+q.ends[e][0]+"→"+q.ends[e][1])
	}
	model := slices.Clone(q.nodes)
	sort.Strings(nodes)
	sort.Strings(edges)
	sort.Strings(want)
	sort.Strings(model)
	if !slices.Equal(nodes, model) {
		t.Fatalf("%s: live nodes %q, want %q", stage, nodes, model)
	}
	if !slices.Equal(edges, want) {
		t.Fatalf("%s: live edges %q, want %q", stage, edges, want)
	}
}
