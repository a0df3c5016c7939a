package reach

import (
	"fmt"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/rpq"
)

// benchGraph builds a deterministic 256-node graph shaped like a
// reachability workload: a labelled ring with skip chords, ~3 out-edges
// per node over two labels.
func benchGraph(tb testing.TB) *graph.Graph {
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

// benchLimits is large enough that no benchmark run trips the budget
// even with counters accumulating across iterations.
var benchLimits = core.Limits{MaxLen: 6, MaxPaths: 1 << 62, MaxWork: 1 << 62}

// BenchmarkReachKernelSteady is the allocation gate's subject: the
// kernel hot loop with evaluator, result and budget reused must run at
// ZERO allocs/op — no path arena, no per-op scratch.
func BenchmarkReachKernelSteady(b *testing.B) {
	g := benchGraph(b)
	nfa := automaton.Build(rpq.Plus{In: rpq.Label{Name: "a"}})
	ev, ok := NewEvaluator(g, nfa)
	if !ok {
		b.Fatal("bitset index infeasible")
	}
	bud := core.NewBudget(benchLimits)
	q := Query{NFA: nfa, MaxLen: benchLimits.MaxLen, NeedLengths: true}
	var res Result
	// Warm up once so result slices reach steady capacity.
	if err := ev.EvalInto(&res, q, bud); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvalInto(&res, q, bud); err != nil {
			b.Fatalf("EvalInto: %v", err)
		}
	}
}

// BenchmarkReachKernelVsEnumeration compares the two kernels on the
// same reachability-shaped query (all-pairs endpoint set + shortest
// lengths for a+ under MaxLen): docs/history records its numbers. The
// enumeration side uses Shortest semantics — the cheapest enumerating
// route to the same answer (Walk would enumerate every walk body).
func BenchmarkReachKernelVsEnumeration(b *testing.B) {
	g := benchGraph(b)
	expr := rpq.Plus{In: rpq.Label{Name: "a"}}
	b.Run("kernel", func(b *testing.B) {
		nfa := automaton.Build(expr)
		ev, ok := NewEvaluator(g, nfa)
		if !ok {
			b.Fatal("bitset index infeasible")
		}
		bud := core.NewBudget(benchLimits)
		q := Query{NFA: nfa, MaxLen: benchLimits.MaxLen, NeedLengths: true}
		var res Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.EvalInto(&res, q, bud); err != nil {
				b.Fatalf("EvalInto: %v", err)
			}
		}
	})
	b.Run("enumeration", func(b *testing.B) {
		nfa := automaton.Build(expr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := automaton.Eval(g, nfa, core.Shortest, benchLimits); err != nil {
				b.Fatalf("automaton.Eval: %v", err)
			}
		}
	})
}
