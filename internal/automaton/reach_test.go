package automaton_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/rpq"
)

// reachFixture builds the multigraph the Reach tests run against:
//
//	n0 -a-> n1, n0 -a-> n2, n1 -b-> n2, n2 -a-> n0,
//	n2 -b-> n3, n3 -b-> n3, n1 -a-> n3, plus the parallel
//	edges n3 =a=> n4 (e7, e8) — two a-edges between the same endpoints.
func reachFixture(t *testing.T) *graph.Graph {
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

// erasePaths derives the reference answer from the Walk search's result:
// the distinct endpoint pairs, ascending, and the minimum length per pair.
func erasePaths(t *testing.T, g *graph.Graph, e rpq.Expr, lim core.Limits) ([]automaton.Pair, map[automaton.Pair]int32) {
	t.Helper()
	set, err := automaton.Eval(g, automaton.Build(e), core.Walk, lim)
	if err != nil {
		t.Fatalf("automaton.Eval: %v", err)
	}
	minLen := map[automaton.Pair]int32{}
	for _, p := range set.Paths() {
		pr := automaton.Pair{Src: p.First(), Dst: p.Last()}
		if cur, ok := minLen[pr]; !ok || int32(p.Len()) < cur {
			minLen[pr] = int32(p.Len())
		}
	}
	var pairs []automaton.Pair
	for pr := range minLen {
		pairs = append(pairs, pr)
	}
	slices.SortFunc(pairs, func(a, b automaton.Pair) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	})
	return pairs, minLen
}

// checkReach compares Reach's answer with the erasure of the Walk search.
func checkReach(t *testing.T, name string, g *graph.Graph, e rpq.Expr, lim core.Limits) {
	t.Helper()
	want, wantLen := erasePaths(t, g, e, lim)
	pairs, lengths, err := automaton.Reach(g, automaton.Build(e), lim, automaton.ReachOptions{})
	if err != nil {
		t.Fatalf("%s: Reach: %v", name, err)
	}
	if len(pairs) != len(want) || len(lengths) != len(pairs) {
		t.Fatalf("%s: Reach %v (%d lengths), enumeration %v", name, pairs, len(lengths), want)
	}
	for i, pr := range pairs {
		if pr != want[i] || lengths[i] != wantLen[pr] {
			t.Fatalf("%s: pair %d Reach (%v, len %d), enumeration (%v, len %d)",
				name, i, pr, lengths[i], want[i], wantLen[want[i]])
		}
	}
}

var reachExprs = []struct {
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

// TestReachMatchesEnumeration: over every source, Reach's pairs and
// lengths are the body erasure of the Walk search's result.
func TestReachMatchesEnumeration(t *testing.T) {
	g := reachFixture(t)
	for _, tc := range reachExprs {
		t.Run(tc.name, func(t *testing.T) {
			checkReach(t, tc.name, g, tc.e, core.Limits{MaxLen: 5})
		})
	}
}

// TestReachParallelEdges pins the pair-vs-path distinction: two parallel
// a-edges n3=>n4 admit exactly ONE endpoint pair even though enumeration
// yields two distinct paths — the reason γ path-count queries must never
// route onto Reach.
func TestReachParallelEdges(t *testing.T) {
	g := reachFixture(t)
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
	pairs, _, err := automaton.Reach(g, automaton.Build(e), lim, automaton.ReachOptions{Seeds: []graph.NodeID{n3.ID}})
	if err != nil {
		t.Fatalf("Reach: %v", err)
	}
	if want := []automaton.Pair{{Src: n3.ID, Dst: n4.ID}}; !slices.Equal(pairs, want) {
		t.Fatalf("Reach from n3 = %v, want %v", pairs, want)
	}
}

// TestReachSeedsAndTargets: seeds restrict sources and targets restrict
// destinations; empty non-nil lists mean none, not all.
func TestReachSeedsAndTargets(t *testing.T) {
	g := reachFixture(t)
	lim := core.Limits{MaxLen: 4}
	e := rpq.Plus{In: rpq.Alt{L: rpq.Label{Name: "a"}, R: rpq.Label{Name: "b"}}}
	allPairs, wantLen := erasePaths(t, g, e, lim)
	seeds := []graph.NodeID{0, 2}
	targets := []graph.NodeID{3, 4}
	var want []automaton.Pair
	for _, pr := range allPairs {
		if slices.Contains(seeds, pr.Src) && slices.Contains(targets, pr.Dst) {
			want = append(want, pr)
		}
	}
	pairs, lengths, err := automaton.Reach(g, automaton.Build(e), lim, automaton.ReachOptions{Seeds: seeds, Targets: targets})
	if err != nil {
		t.Fatalf("Reach: %v", err)
	}
	if !slices.Equal(pairs, want) {
		t.Fatalf("Reach(seeds %v, targets %v) = %v, want %v", seeds, targets, pairs, want)
	}
	for i, pr := range pairs {
		if lengths[i] != wantLen[pr] {
			t.Fatalf("pair %v: length %d, want %d", pr, lengths[i], wantLen[pr])
		}
	}
	for _, o := range []automaton.ReachOptions{{Seeds: []graph.NodeID{}}, {Targets: []graph.NodeID{}}} {
		pairs, _, err := automaton.Reach(g, automaton.Build(e), lim, o)
		if err != nil || len(pairs) != 0 {
			t.Fatalf("Reach(%+v) = %v, err %v; want none", o, pairs, err)
		}
	}
}

// TestReachBudgetAndCancel: MaxWork and MaxPaths end Reach in
// core.ErrBudgetExceeded, a cancelled context in context.Canceled, and a
// cancellation mid-sweep returns within 100ms (as the search's do).
func TestReachBudgetAndCancel(t *testing.T) {
	g := reachFixture(t)
	nfa := automaton.Build(rpq.Plus{In: rpq.AnyLabel{}})
	for _, lim := range []core.Limits{{MaxLen: 6, MaxWork: 3}, {MaxLen: 6, MaxPaths: 2}} {
		if _, _, err := automaton.Reach(g, nfa, lim, automaton.ReachOptions{}); !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("%+v: got %v, want ErrBudgetExceeded", lim, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := automaton.Reach(g, nfa, core.Limits{MaxLen: 6}, automaton.ReachOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
	}

	// Every source sweeps most of a 6000-node graph: seconds of work.
	// No target is admitted, so no pair is kept while it runs.
	big := ldbc.MustGenerate(ldbc.Config{Persons: 3000, Messages: 3000, KnowsPerPerson: 4, LikesPerPerson: 3,
		CycleFraction: 0.5, Seed: 7})
	nfa = automaton.Build(rpq.MustParse("(:Knows|:Likes)+"))
	lim := core.Limits{MaxPaths: 1 << 30, MaxWork: 1 << 40}
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := automaton.Reach(big, nfa, lim, automaton.ReachOptions{Ctx: ctx, Targets: []graph.NodeID{}})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if since := time.Since(cancelled); since > 100*time.Millisecond {
			t.Errorf("returned %v after cancellation, want < 100ms", since)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reach did not return within 5s of cancellation")
	}
}

// TestReachOverlay evaluates on a delta view (appends, deletes and a
// tombstoned node) and cross-checks against enumeration over the same
// view.
func TestReachOverlay(t *testing.T) {
	s := graph.NewStore(reachFixture(t), graph.StoreOptions{CompactThreshold: -1})
	defer s.Close()
	if _, err := s.Apply(graph.Batch{Ops: []graph.Op{
		{Kind: graph.OpAddNode, Key: "n5", Label: "N"},
		{Kind: graph.OpAddEdge, Key: "e9", Src: "n4", Dst: "n5", Label: "b"},
		{Kind: graph.OpAddEdge, Key: "e10", Src: "n5", Dst: "n0", Label: "a"},
		{Kind: graph.OpDelEdge, Key: "e1"},
		{Kind: graph.OpDelNode, Key: "n1"},
	}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for _, tc := range reachExprs {
		checkReach(t, tc.name+" on overlay", s.Graph(), tc.e, core.Limits{MaxLen: 5})
	}
}

// TestReachSpan: Reach's "bfs" span counts the sources it swept, the
// product states they discovered and the pairs it returned.
func TestReachSpan(t *testing.T) {
	g := reachFixture(t)
	tr := obs.NewTrace()
	root := tr.Start("reach")
	pairs, _, err := automaton.Reach(g, automaton.Build(rpq.Plus{In: rpq.Label{Name: "b"}}), core.Limits{MaxLen: 4},
		automaton.ReachOptions{Ctx: obs.WithSpan(context.Background(), root), Seeds: []graph.NodeID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	tree := tr.Tree()
	if len(tree) != 1 || len(tree[0].Children) != 1 || tree[0].Children[0].Name != "bfs" {
		t.Fatalf("trace = %s, want reach > bfs", tr.Format())
	}
	// b+ from n1 reaches n2 and n3, from n2 reaches n3, each in the b
	// state; each sweep also discovers its source in the start state.
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v, want n1→n2, n1→n3, n2→n3", pairs)
	}
	want := map[string]int64{"sources": 2, "states": 5, "pairs": 3}
	if got := tree[0].Children[0].Attrs; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bfs span attrs = %v, want %v", got, want)
	}
}
