package automaton_test

import (
	"fmt"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/rpq"
)

func BenchmarkBuild(b *testing.B) {
	re := rpq.MustParse("((:Knows|:Likes)+/:Has_creator)*|(:Knows/:Knows)?")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		automaton.Build(re)
	}
}

func BenchmarkEvalSemantics(b *testing.B) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 30, Messages: 30, KnowsPerPerson: 2, LikesPerPerson: 1,
		CycleFraction: 0.3, Seed: 8,
	})
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	for _, sem := range core.AllSemantics() {
		b.Run(sem.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := automaton.Eval(g, nfa, sem, core.Limits{MaxLen: 6}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvalTwoLabelPattern(b *testing.B) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 30, Messages: 40, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 8,
	})
	nfa := automaton.Build(rpq.MustParse("(:Likes/:Has_creator)+"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := automaton.Eval(g, nfa, core.Trail, core.Limits{MaxLen: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalShortestOnly isolates Shortest semantics with no MaxLen:
// the Walk search under a one-length quota, which expands each product
// state at its first BFS level only.
func BenchmarkEvalShortestOnly(b *testing.B) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 30, Messages: 40, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 8,
	})
	nfa := automaton.Build(rpq.MustParse("(:Likes/:Has_creator)+"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := automaton.Eval(g, nfa, core.Shortest, core.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectorPushdown is the search half of ANY 2 TRAIL over every
// endpoint pair: the per-pair quota is applied inside the product search,
// so allocations must follow the paths returned (reported as paths/op),
// not the trails enumerated — scripts/check_allocs.sh gates the ratio.
func BenchmarkSelectorPushdown(b *testing.B) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 50, Messages: 100, KnowsPerPerson: 3, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 1,
	})
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	opts := automaton.EvalOptions{Quota: core.Quota{K: 2}}
	b.ReportAllocs()
	paths := 0
	for i := 0; i < b.N; i++ {
		out, err := automaton.EvalWithOptions(g, nfa, core.Trail, core.Limits{MaxLen: 7}, opts)
		if err != nil {
			b.Fatal(err)
		}
		paths = out.Len()
	}
	b.ReportMetric(float64(paths), "paths/op")
}

// reachBenchGraph is a deterministic 256-node graph shaped like a
// reachability workload: a labelled ring with skip chords, ~2.3
// out-edges per node over two labels.
func reachBenchGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	const n = 256
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "N", nil)
	}
	eid := 0
	edge := func(src, dst int, label string) {
		b.AddEdge(fmt.Sprintf("e%d", eid), fmt.Sprintf("n%d", src), fmt.Sprintf("n%d", dst), label, nil)
		eid++
	}
	for i := 0; i < n; i++ {
		edge(i, (i+1)%n, "a")
		edge(i, (i+7)%n, "b")
		if i%3 == 0 {
			edge(i, (i+31)%n, "a")
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return g
}

// BenchmarkReachKernelVsEnumeration answers all-pairs shortest lengths of
// a+ under MaxLen 6 two ways: Reach's product BFS, and the cheapest
// enumerating route to the same answer, the Shortest search (Walk would
// enumerate every walk body).
func BenchmarkReachKernelVsEnumeration(b *testing.B) {
	g := reachBenchGraph(b)
	nfa := automaton.Build(rpq.Plus{In: rpq.Label{Name: "a"}})
	lim := core.Limits{MaxLen: 6}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := automaton.Reach(g, nfa, lim, automaton.ReachOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumeration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := automaton.Eval(g, nfa, core.Shortest, lim); err != nil {
				b.Fatal(err)
			}
		}
	})
}
