package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/testutil"
)

func knowsRecurse(sem core.Semantics) core.PathExpr {
	return core.Recurse{Sem: sem, In: core.Select{
		Cond: cond.Label(cond.EdgeAt(1), ldbc.LabelKnows), In: core.Edges{},
	}}
}

// checkReachAgainstRun cross-checks every Reach mode against the erasure
// of the engine's own enumerated result — the kernel-vs-enumeration
// differential. wantKernel pins the expected route for the erasure-
// invariant modes.
func checkReachAgainstRun(t *testing.T, e *Engine, plan core.PathExpr, wantKernel bool) {
	t.Helper()
	set, err := e.Run(plan)
	if err != nil {
		t.Fatalf("Run(%s): %v", plan, err)
	}
	for _, mode := range []opt.ReachMode{
		opt.ReachExists, opt.ReachPairs, opt.ReachCountPairs, opt.ReachShortestLengths,
	} {
		got, err := e.Reach(plan, mode)
		if err != nil {
			t.Fatalf("Reach(%s, %s): %v", plan, mode, err)
		}
		if got.Kernel != wantKernel {
			t.Fatalf("Reach(%s, %s): kernel = %v, want %v", plan, mode, got.Kernel, wantKernel)
		}
		want := reachFromSet(set, mode)
		if got.Exists != want.Exists || got.Count != want.Count {
			t.Fatalf("Reach(%s, %s): exists=%v count=%d, enumeration says exists=%v count=%d",
				plan, mode, got.Exists, got.Count, want.Exists, want.Count)
		}
		if mode == opt.ReachPairs || mode == opt.ReachShortestLengths {
			if len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("Reach(%s, %s): %d pairs, enumeration says %d",
					plan, mode, len(got.Pairs), len(want.Pairs))
			}
			for i := range got.Pairs {
				if got.Pairs[i] != want.Pairs[i] {
					t.Fatalf("Reach(%s, %s): pair[%d] = %v, enumeration says %v",
						plan, mode, i, got.Pairs[i], want.Pairs[i])
				}
			}
		}
		if mode == opt.ReachShortestLengths {
			for i := range got.Lengths {
				if got.Lengths[i] != want.Lengths[i] {
					t.Fatalf("Reach(%s, %s): length[%v] = %d, enumeration says %d",
						plan, mode, got.Pairs[i], got.Lengths[i], want.Lengths[i])
				}
			}
		}
	}
	// Path counts must always enumerate.
	got, err := e.Reach(plan, opt.ReachCountPaths)
	if err != nil {
		t.Fatalf("Reach(%s, count-paths): %v", plan, err)
	}
	if got.Kernel {
		t.Fatalf("Reach(%s, count-paths) ran on the kernel", plan)
	}
	if got.Count != set.Len() {
		t.Fatalf("Reach(%s, count-paths) = %d, enumeration has %d paths",
			plan, got.Count, set.Len())
	}
}

// TestReachParallelEdges pins the γ path-count seam: two parallel knows
// edges are two distinct paths with one endpoint pair. The kernel must
// serve pair counts (1) and must never be consulted for path counts (2).
func TestReachParallelEdges(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("a", ldbc.LabelPerson, nil)
	b.AddNode("b", ldbc.LabelPerson, nil)
	b.AddEdge("e1", "a", "b", ldbc.LabelKnows, nil)
	b.AddEdge("e2", "a", "b", ldbc.LabelKnows, nil)
	g := b.MustBuild()
	e := New(g, Options{Limits: core.Limits{MaxLen: 3}})
	plan := knowsRecurse(core.Walk)

	pairs, err := e.Reach(plan, opt.ReachCountPairs)
	if err != nil {
		t.Fatal(err)
	}
	if !pairs.Kernel {
		t.Error("pair count of an eligible plan must run on the kernel")
	}
	if pairs.Count != 1 {
		t.Errorf("pair count = %d, want 1", pairs.Count)
	}

	paths, err := e.Reach(plan, opt.ReachCountPaths)
	if err != nil {
		t.Fatal(err)
	}
	if paths.Kernel {
		t.Error("path count must never run on the kernel")
	}
	if paths.Count != 2 {
		t.Errorf("path count = %d, want 2 (parallel edges are distinct paths)", paths.Count)
	}

	st := e.Stats()
	if st.ReachKernelRuns != 1 || st.ReachFallbacks != 1 {
		t.Errorf("stats: kernel=%d fallbacks=%d, want 1 and 1",
			st.ReachKernelRuns, st.ReachFallbacks)
	}
	checkReachAgainstRun(t, e, plan, true)
}

// TestReachDispatch pins the routing table: eligible shapes take the
// kernel, ineligible ones enumerate, and both produce the erasure of the
// enumerated result.
func TestReachDispatch(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	gST := core.GroupSource | core.GroupTarget

	kernelPlans := []core.PathExpr{
		knowsRecurse(core.Walk),
		knowsRecurse(core.Shortest),
		core.Select{Cond: cond.Label(cond.First(), ldbc.LabelPerson), In: knowsRecurse(core.Walk)},
		core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.AllCount(),
			In: core.GroupBy{Key: gST, In: knowsRecurse(core.Walk)}},
		core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
			In: core.OrderBy{Key: core.OrderPath, In: core.GroupBy{Key: gST, In: knowsRecurse(core.Shortest)}}},
	}
	for _, plan := range kernelPlans {
		checkReachAgainstRun(t, e, plan, true)
	}
	enumPlans := []core.PathExpr{
		knowsRecurse(core.Trail),
		core.Select{Cond: cond.Label(cond.NodeAt(2), ldbc.LabelPerson), In: knowsRecurse(core.Walk)},
	}
	for _, plan := range enumPlans {
		checkReachAgainstRun(t, e, plan, false)
	}
}

// TestExplainReportsKernel pins the explain surface: eligible plans
// report the product BFS route, ineligible ones enumeration.
func TestExplainReportsKernel(t *testing.T) {
	e := New(ldbc.Figure1(), Options{Limits: core.Limits{MaxLen: 3}})
	ex, err := e.Explain(context.Background(), knowsRecurse(core.Walk))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Kernel != "product-bfs" {
		t.Errorf("eligible plan explain kernel = %q, want product-bfs", ex.Kernel)
	}
	if s := ex.Format(); !strings.Contains(s, "reach kernel: product-bfs") {
		t.Errorf("Format missing kernel line:\n%s", s)
	}
	ex, err = e.Explain(context.Background(), knowsRecurse(core.Trail))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Kernel != "enumeration" {
		t.Errorf("ineligible plan explain kernel = %q, want enumeration", ex.Kernel)
	}
}

// TestReachIngestNewLabelReseal is the label-clock seam regression: a
// batch introducing a brand-new edge label takes the store's inline
// reseal path. The resealed graph value must serve kernel answers that
// see the new label — an automaton compiled against a stale symbol table
// would silently return empty.
func TestReachIngestNewLabelReseal(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), ldbc.LabelPerson, nil)
	}
	b.AddEdge("k0", "n0", "n1", ldbc.LabelKnows, nil)
	b.AddEdge("k1", "n1", "n2", ldbc.LabelKnows, nil)
	s := graph.NewStore(b.MustBuild(), graph.StoreOptions{CompactThreshold: -1})
	defer s.Close()
	e := NewWithStore(s, Options{Limits: core.Limits{MaxLen: 4}})

	// Answer a kernel query before the ingest.
	checkReachAgainstRun(t, e, knowsRecurse(core.Walk), true)

	// "likes" does not exist yet: the eligible plan must answer empty.
	likes := core.Recurse{Sem: core.Walk, In: core.Select{
		Cond: cond.Label(cond.EdgeAt(1), ldbc.LabelLikes), In: core.Edges{},
	}}
	res, err := e.Reach(likes, opt.ReachPairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists {
		t.Fatal("likes pairs exist before the label was ingested")
	}

	// Ingest the new label (inline reseal) plus a delete in one batch.
	if _, err := s.Apply(graph.Batch{Ops: []graph.Op{
		{Kind: graph.OpAddEdge, Key: "l0", Src: "n2", Dst: "n3", Label: ldbc.LabelLikes},
		{Kind: graph.OpAddEdge, Key: "l1", Src: "n3", Dst: "n0", Label: ldbc.LabelLikes},
		{Kind: graph.OpDelEdge, Key: "k1"},
	}}); err != nil {
		t.Fatal(err)
	}

	res, err = e.Reach(likes, opt.ReachCountPairs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Kernel {
		t.Error("post-reseal likes plan must run on the kernel")
	}
	if res.Count != 3 { // n2→n3, n3→n0, n2→n0
		t.Errorf("likes pair count = %d, want 3", res.Count)
	}
	checkReachAgainstRun(t, e, likes, true)
	checkReachAgainstRun(t, e, knowsRecurse(core.Walk), true) // k1 gone

	// Compaction republishes a sealed graph; answers must not change.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkReachAgainstRun(t, e, likes, true)
	checkReachAgainstRun(t, e, knowsRecurse(core.Walk), true)
}

// randomReachRecursion generates a random label pattern under Walk or
// Shortest.
func randomReachRecursion(rng *rand.Rand) core.Recurse {
	labels := []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator}
	var pattern func(depth int) core.PathExpr
	pattern = func(depth int) core.PathExpr {
		if depth <= 0 || rng.Intn(2) == 0 {
			if rng.Intn(4) == 0 {
				return core.Edges{}
			}
			return core.Select{
				Cond: cond.Label(cond.EdgeAt(1), labels[rng.Intn(len(labels))]),
				In:   core.Edges{},
			}
		}
		if rng.Intn(2) == 0 {
			return core.Join{L: pattern(depth - 1), R: pattern(depth - 1)}
		}
		return core.Union{L: pattern(depth - 1), R: pattern(depth - 1)}
	}
	sem := core.Walk
	if rng.Intn(2) == 0 {
		sem = core.Shortest
	}
	return core.Recurse{Sem: sem, In: pattern(2)}
}

// anyShortest wraps plan in the ANY SHORTEST pipeline π(*,*,1)(τA(γST)).
func anyShortest(plan core.PathExpr) core.PathExpr {
	return core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
		In: core.OrderBy{Key: core.OrderPath,
			In: core.GroupBy{Key: core.GroupSource | core.GroupTarget, In: plan}}}
}

// randomReachPlan generates a kernel-eligible plan: a random label
// pattern under Walk or Shortest, optionally wrapped in an endpoint
// selection, an identity pipeline or the ANY SHORTEST truncation.
func randomReachPlan(rng *rand.Rand) core.PathExpr {
	var plan core.PathExpr = randomReachRecursion(rng)
	switch rng.Intn(4) {
	case 0:
		c := cond.Label(cond.First(), ldbc.LabelPerson)
		if rng.Intn(2) == 0 {
			plan = core.Select{Cond: cond.And{L: c, R: cond.Label(cond.Last(), ldbc.LabelPerson)}, In: plan}
		} else {
			plan = core.Select{Cond: c, In: plan}
		}
	case 1:
		plan = core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.AllCount(),
			In: core.GroupBy{Key: core.GroupSource | core.GroupTarget, In: plan}}
	case 2:
		plan = anyShortest(plan)
	}
	return plan
}

// randomEndpointReachPlan generates the endpoint selections
// randomReachPlan never does: the bench's {id:N} seed first.id = N,
// answered from the property postings, alone or beside a label, and
// last-only conditions, which restrict targets but not sources. Ids run
// past the graph's so some select nothing.
func randomEndpointReachPlan(rng *rand.Rand) core.PathExpr {
	rec := randomReachRecursion(rng)
	id := func(t cond.Target) cond.Cond {
		return cond.PropCmp{Target: t, Prop: "id", Op: cond.EQ, Value: graph.IntValue(int64(1 + rng.Intn(14)))}
	}
	last := cond.Label(cond.Last(), []string{ldbc.LabelPerson, ldbc.LabelMessage}[rng.Intn(2)])
	var c cond.Cond
	switch rng.Intn(5) {
	case 0:
		c = id(cond.First())
	case 1:
		c = cond.And{L: cond.Label(cond.First(), ldbc.LabelPerson), R: id(cond.First())}
	case 2:
		c = last
	case 3:
		c = id(cond.Last())
	default:
		c = cond.And{L: id(cond.First()), R: last}
	}
	var plan core.PathExpr = core.Select{Cond: c, In: rec}
	if rng.Intn(2) == 0 {
		plan = anyShortest(plan)
	}
	return plan
}

// TestRandomizedReachDifferential extends the randomized harness to the
// reach kernel: seeded random plans over store-backed graphs, every
// kernel-eligible plan cross-checked kernel-vs-enumeration on all modes,
// across three store phases — sealed base,
// post-ingest overlay (adds, deletes and a new label), and post-
// compaction.
func TestRandomizedReachDifferential(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(20260808))
	// The endpoint plans draw from their own stream, so the first
	// generator's plans stay what they were before it existed.
	endRng := rand.New(rand.NewSource(20261016))
	lim := core.Limits{MaxLen: 3}

	g := testutil.RandomGraph(rng)
	s := graph.NewStore(g, graph.StoreOptions{CompactThreshold: -1})
	defer s.Close()
	e := NewWithStore(s, Options{Limits: lim})

	phase := func(name string, n int) {
		t.Helper()
		eligible := 0
		for trial := 0; trial < n; trial++ {
			// Alternate arbitrary plans (routing consistency, fallback
			// included) with guaranteed-eligible ones (kernel depth).
			var plan core.PathExpr
			if trial%2 == 0 {
				plan = testutil.RandomPlan(rng, 3)
			} else {
				plan = randomReachPlan(rng)
			}
			physical, _ := e.Plan(plan)
			_, ok := opt.Derive(physical).Reach(opt.ReachPairs)
			if ok {
				eligible++
			}
			checkReachAgainstRun(t, e, plan, ok)
		}
		if eligible == 0 {
			t.Fatalf("%s: no kernel-eligible plan in %d trials", name, n)
		}
		t.Logf("%s: %d/%d plans kernel-eligible", name, eligible, n)
		for trial := 0; trial < n/2; trial++ {
			plan := randomEndpointReachPlan(endRng)
			physical, _ := e.Plan(plan)
			if _, ok := opt.Derive(physical).Reach(opt.ReachPairs); !ok {
				t.Fatalf("%s: endpoint plan %s is not kernel-eligible", name, plan)
			}
			checkReachAgainstRun(t, e, plan, true)
		}
		t.Logf("%s: %d endpoint plans on the product BFS equal enumeration", name, n/2)
	}

	per := trials / 3
	phase("sealed", per)

	// Overlay phase: new persons, new knows edges, a brand-new label,
	// deletes of freshly-added edges and of person p1 (id 1) with its
	// edges — all key-known operations. p1 stays in the ID space as a
	// tombstone that no seed or target may name.
	ops := []graph.Op{
		{Kind: graph.OpAddNode, Key: "xp0", Label: ldbc.LabelPerson},
		{Kind: graph.OpAddNode, Key: "xp1", Label: ldbc.LabelPerson},
		{Kind: graph.OpAddEdge, Key: "xe0", Src: "xp0", Dst: "xp1", Label: ldbc.LabelKnows},
		{Kind: graph.OpAddEdge, Key: "xe1", Src: "xp1", Dst: "xp0", Label: "collab"},
		{Kind: graph.OpAddEdge, Key: "xe2", Src: "xp0", Dst: "xp1", Label: "collab"},
	}
	if _, err := s.Apply(graph.Batch{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(graph.Batch{Ops: []graph.Op{
		{Kind: graph.OpDelEdge, Key: "xe2"},
		{Kind: graph.OpDelNode, Key: "p1"},
	}}); err != nil {
		t.Fatal(err)
	}
	phase("overlay", per)

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	phase("compacted", per)
}

var reachSink *ReachResult

// BenchmarkReach: the /reach of (?x:Person {id:N})-[:Knows+]->(?y) with
// the plan cached and the postings warm. The product BFS costs what the
// seed reaches, not |V|: its visited bitset is pooled and its pair slices
// are sized once per seed, so scripts/check_allocs.sh requires equal
// allocs/op at both sizes although the answers differ (the pairs metric).
func BenchmarkReach(b *testing.B) {
	for _, persons := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			g := ldbc.MustGenerate(ldbc.Config{Persons: persons, Messages: 2 * persons, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
			plan, err := compileQuery("MATCH WALK p = (?x:Person {id:4242})-[:Knows+]->(?y)")
			if err != nil {
				b.Fatal(err)
			}
			e := New(g, Options{Limits: core.Limits{MaxLen: 3}})
			res, err := e.Reach(plan, opt.ReachPairs)
			if err != nil || !res.Kernel {
				b.Fatalf("Reach: kernel=%v, err %v", res != nil && res.Kernel, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reachSink, _ = e.Reach(plan, opt.ReachPairs)
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Count), "pairs")
		})
	}
}
