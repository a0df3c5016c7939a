package reach

import (
	"context"
	"errors"
	"sort"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/rpq"
)

// fixture builds the multigraph the kernel tests run against:
//
//	n0 -a-> n1, n0 -a-> n2, n1 -b-> n2, n2 -a-> n0,
//	n2 -b-> n3, n3 -b-> n3, n1 -a-> n3, plus the parallel
//	edges n3 =a=> n4 (e7, e8) — two a-edges between the same endpoints.
func fixture(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for _, k := range []string{"n0", "n1", "n2", "n3", "n4"} {
		b.AddNode(k, "N", nil)
	}
	b.AddEdge("e0", "n0", "n1", "a", nil)
	b.AddEdge("e1", "n0", "n2", "a", nil)
	b.AddEdge("e2", "n1", "n2", "b", nil)
	b.AddEdge("e3", "n2", "n0", "a", nil)
	b.AddEdge("e4", "n2", "n3", "b", nil)
	b.AddEdge("e5", "n3", "n3", "b", nil)
	b.AddEdge("e6", "n1", "n3", "a", nil)
	b.AddEdge("e7", "n3", "n4", "a", nil)
	b.AddEdge("e8", "n3", "n4", "a", nil)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// erasePaths derives the reference answer from an enumerated path set:
// the distinct endpoint pairs and the minimum walk length per pair.
func erasePaths(t *testing.T, g *graph.Graph, e rpq.Expr, lim core.Limits) (pairs []Pair, minLen map[Pair]int32) {
	t.Helper()
	set, err := automaton.Eval(g, automaton.Build(e), core.Walk, lim)
	if err != nil {
		t.Fatalf("automaton.Eval: %v", err)
	}
	minLen = map[Pair]int32{}
	for _, p := range set.Paths() {
		pr := Pair{Src: p.First(), Dst: p.Last()}
		if cur, ok := minLen[pr]; !ok || int32(p.Len()) < cur {
			minLen[pr] = int32(p.Len())
		}
	}
	for pr := range minLen {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	return pairs, minLen
}

var kernelExprs = []struct {
	name string
	e    rpq.Expr
}{
	{"a+", rpq.Plus{In: rpq.Label{Name: "a"}}},
	{"b+", rpq.Plus{In: rpq.Label{Name: "b"}}},
	{"(a|b)+", rpq.Plus{In: rpq.Alt{L: rpq.Label{Name: "a"}, R: rpq.Label{Name: "b"}}}},
	{"any+", rpq.Plus{In: rpq.AnyLabel{}}},
	{"a.b", rpq.Concat{L: rpq.Label{Name: "a"}, R: rpq.Label{Name: "b"}}},
	{"a*", rpq.Star{In: rpq.Label{Name: "a"}}}, // nullable: empty word accepted
	{"a.b*.a", rpq.Concat{L: rpq.Label{Name: "a"}, R: rpq.Concat{L: rpq.Star{In: rpq.Label{Name: "b"}}, R: rpq.Label{Name: "a"}}}},
	{"missing-label", rpq.Plus{In: rpq.Label{Name: "zzz"}}},
}

func TestKernelMatchesEnumeration(t *testing.T) {
	g := fixture(t)
	lim := core.Limits{MaxLen: 5}
	for _, tc := range kernelExprs {
		t.Run(tc.name, func(t *testing.T) {
			wantPairs, wantLen := erasePaths(t, g, tc.e, lim)
			res, err := Eval(context.Background(), g, Query{NFA: automaton.Build(tc.e), NeedLengths: true}, lim)
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			if len(res.Pairs) != len(wantPairs) {
				t.Fatalf("pair count: kernel %d, enumeration %d\nkernel: %v\nwant: %v",
					len(res.Pairs), len(wantPairs), res.Pairs, wantPairs)
			}
			for i, pr := range res.Pairs {
				if pr != wantPairs[i] {
					t.Fatalf("pair %d: kernel %v, enumeration %v", i, pr, wantPairs[i])
				}
				if res.Lengths[i] != wantLen[pr] {
					t.Fatalf("pair %v: kernel length %d, enumeration min %d", pr, res.Lengths[i], wantLen[pr])
				}
			}
		})
	}
}

// TestKernelParallelEdges pins the pair-vs-path distinction: two parallel
// a-edges n3=>n4 admit exactly ONE endpoint pair even though enumeration
// yields two distinct paths — the reason γ path-count queries must never
// route onto this kernel.
func TestKernelParallelEdges(t *testing.T) {
	g := fixture(t)
	lim := core.Limits{MaxLen: 1}
	e := rpq.Plus{In: rpq.Label{Name: "a"}}
	set, err := automaton.Eval(g, automaton.Build(e), core.Walk, lim)
	if err != nil {
		t.Fatalf("automaton.Eval: %v", err)
	}
	n3, _ := g.NodeByKey("n3")
	n4, _ := g.NodeByKey("n4")
	enumerated := 0
	for _, p := range set.Paths() {
		if p.First() == n3.ID && p.Last() == n4.ID {
			enumerated++
		}
	}
	if enumerated != 2 {
		t.Fatalf("expected 2 parallel-edge paths n3->n4, enumeration found %d", enumerated)
	}
	res, err := Eval(context.Background(), g, Query{NFA: automaton.Build(e), Seeds: []graph.NodeID{n3.ID}}, lim)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	kernelPairs := 0
	for _, pr := range res.Pairs {
		if pr == (Pair{Src: n3.ID, Dst: n4.ID}) {
			kernelPairs++
		}
	}
	if kernelPairs != 1 {
		t.Fatalf("kernel admitted the n3->n4 pair %d times, want exactly 1", kernelPairs)
	}
}

func TestKernelSeedsAndTargets(t *testing.T) {
	g := fixture(t)
	lim := core.Limits{MaxLen: 4}
	e := rpq.Plus{In: rpq.Alt{L: rpq.Label{Name: "a"}, R: rpq.Label{Name: "b"}}}
	allPairs, wantLen := erasePaths(t, g, e, lim)
	seeds := []graph.NodeID{0, 2}
	targets := []graph.NodeID{3, 4}
	inSet := func(ids []graph.NodeID, v graph.NodeID) bool {
		for _, id := range ids {
			if id == v {
				return true
			}
		}
		return false
	}
	var want []Pair
	for _, pr := range allPairs {
		if inSet(seeds, pr.Src) && inSet(targets, pr.Dst) {
			want = append(want, pr)
		}
	}
	res, err := Eval(context.Background(), g,
		Query{NFA: automaton.Build(e), Seeds: seeds, Targets: targets, NeedLengths: true}, lim)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("restricted pairs: kernel %v, want %v", res.Pairs, want)
	}
	for i, pr := range res.Pairs {
		if pr != want[i] || res.Lengths[i] != wantLen[pr] {
			t.Fatalf("pair %d: kernel (%v, len %d), want (%v, len %d)", i, pr, res.Lengths[i], want[i], wantLen[want[i]])
		}
	}

	// Non-nil empty seed/target sets mean zero, not all.
	res, err = Eval(context.Background(), g, Query{NFA: automaton.Build(e), Seeds: []graph.NodeID{}}, lim)
	if err != nil || len(res.Pairs) != 0 {
		t.Fatalf("empty seed set: got %v pairs, err %v; want none", res.Pairs, err)
	}
	res, err = Eval(context.Background(), g, Query{NFA: automaton.Build(e), Targets: []graph.NodeID{}}, lim)
	if err != nil || len(res.Pairs) != 0 {
		t.Fatalf("empty target set: got %v pairs, err %v; want none", res.Pairs, err)
	}
}

func TestKernelBudgetAndCancel(t *testing.T) {
	g := fixture(t)
	e := rpq.Plus{In: rpq.AnyLabel{}}
	_, err := Eval(context.Background(), g, Query{NFA: automaton.Build(e)}, core.Limits{MaxLen: 6, MaxWork: 3})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("tiny MaxWork: got %v, want ErrBudgetExceeded", err)
	}
	_, err = Eval(context.Background(), g, Query{NFA: automaton.Build(e)}, core.Limits{MaxLen: 6, MaxPaths: 2})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("tiny MaxPaths: got %v, want ErrBudgetExceeded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Eval(ctx, g, Query{NFA: automaton.Build(e)}, core.Limits{MaxLen: 6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestKernelOverlay evaluates on a delta view (appends + deletes, with
// the base's index built first so the patch path is exercised) and
// cross-checks against enumeration over the same view.
func TestKernelOverlay(t *testing.T) {
	s := graph.NewStore(fixture(t), graph.StoreOptions{CompactThreshold: -1})
	defer s.Close()
	if _, ok := s.Graph().Bitsets(); !ok {
		t.Fatal("base Bitsets infeasible")
	}
	if _, err := s.Apply(graph.Batch{Ops: []graph.Op{
		{Kind: graph.OpAddNode, Key: "n5", Label: "N"},
		{Kind: graph.OpAddEdge, Key: "e9", Src: "n4", Dst: "n5", Label: "b"},
		{Kind: graph.OpAddEdge, Key: "e10", Src: "n5", Dst: "n0", Label: "a"},
		{Kind: graph.OpDelEdge, Key: "e1"},
		{Kind: graph.OpDelNode, Key: "n1"},
	}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	g := s.Graph()
	lim := core.Limits{MaxLen: 5}
	for _, tc := range kernelExprs {
		wantPairs, wantLen := erasePaths(t, g, tc.e, lim)
		res, err := Eval(context.Background(), g, Query{NFA: automaton.Build(tc.e), NeedLengths: true}, lim)
		if err != nil {
			t.Fatalf("%s: Eval: %v", tc.name, err)
		}
		if len(res.Pairs) != len(wantPairs) {
			t.Fatalf("%s on overlay: kernel %v, enumeration %v", tc.name, res.Pairs, wantPairs)
		}
		for i, pr := range res.Pairs {
			if pr != wantPairs[i] || res.Lengths[i] != wantLen[pr] {
				t.Fatalf("%s on overlay: pair %d kernel (%v, %d) vs enumeration (%v, %d)",
					tc.name, i, pr, res.Lengths[i], wantPairs[i], wantLen[wantPairs[i]])
			}
		}
	}
}

// TestKernelInfeasibleIndex: an over-cap graph reports ErrInfeasible
// rather than answering wrong.
func TestKernelInfeasibleIndex(t *testing.T) {
	old := graph.MaxBitsetBytes
	graph.MaxBitsetBytes = 8
	defer func() { graph.MaxBitsetBytes = old }()
	g := fixture(t)
	_, err := Eval(context.Background(), g,
		Query{NFA: automaton.Build(rpq.Plus{In: rpq.Label{Name: "a"}})}, core.Limits{MaxLen: 3})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
}
