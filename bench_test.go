package pathalgebra

// Benchmark harness regenerating the performance side of every table and
// figure of the paper (see EXPERIMENTS.md for the index):
//
//	Figures 2–5:  BenchmarkFigure2Query .. BenchmarkFigure5Plan
//	Table 1:      BenchmarkSelectors (all 7 selectors)
//	Table 2/3:    BenchmarkRestrictors (all 5 ϕ semantics)
//	Table 4:      BenchmarkGroupBy (all 8 γ keys)
//	Table 6:      BenchmarkOrderBy (all 7 τ keys)
//	Table 7:      BenchmarkTable7Pipelines (selector→algebra pipelines)
//	Figure 6:     BenchmarkPushdownAblation (§7.3 predicate pushdown)
//	§7.3:         BenchmarkShortestRewriteAblation (Walk→Shortest)
//	Extra E1:     BenchmarkAlgebraVsAutomaton (baseline comparison)
//	Extra E2:     BenchmarkJoinStrategies (hash vs nested loop)
//	Extra E3:     BenchmarkSemanticsSweep (cycle-density sweep)
//
// The paper reports no absolute numbers (it has no system evaluation), so
// these benchmarks document the cost model of the reference
// implementation rather than reproduce published timings.

import (
	"context"
	"fmt"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/rpq"
)

// benchGraph is a moderately cyclic SNB-like graph sized so that the full
// suite stays fast while recursion costs dominate setup costs.
func benchGraph() *Graph {
	return ldbc.MustGenerate(ldbc.Config{
		Persons: 40, Messages: 60, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 17,
	})
}

func mustEval(b *testing.B, g *Graph, plan PathExpr, lim Limits) int {
	b.Helper()
	eng := engine.New(g, engine.Options{Limits: lim})
	res, err := eng.EvalPaths(plan)
	if err != nil {
		b.Fatal(err)
	}
	return res.Len()
}

// BenchmarkFigure2Query evaluates the intro/Figure 2 recursive query under
// Simple semantics on the Figure 1 graph.
func BenchmarkFigure2Query(b *testing.B) {
	g := Figure1()
	plan := gql.MustCompile(
		`MATCH SIMPLE p = (?x {name:"Moe"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:"Apu"})`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, g, plan, Limits{})
	}
}

// BenchmarkFigure3Query evaluates the non-recursive Figure 3 query
// (friends and friends-of-friends of Moe).
func BenchmarkFigure3Query(b *testing.B) {
	g := Figure1()
	plan := gql.MustCompile(`MATCH WALK p = (?x {name:"Moe"})-[:Knows|(:Knows/:Knows)]->(?y)`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, g, plan, Limits{})
	}
}

// BenchmarkFigure4Query evaluates the Kleene-star variant of Figure 4.
func BenchmarkFigure4Query(b *testing.B) {
	g := Figure1()
	plan := gql.MustCompile(
		`MATCH SIMPLE p = (?x {name:"Moe"})-[(:Knows+)|(:Likes/:Has_creator)*]->(?y {name:"Apu"})`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, g, plan, Limits{})
	}
}

// BenchmarkFigure5Plan evaluates the §5 extended pipeline
// π(*,*,1)(τA(γST(ϕTrail(σKnows(Edges))))).
func BenchmarkFigure5Plan(b *testing.B) {
	g := Figure1()
	plan := gql.MustCompile(`MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, g, plan, Limits{})
	}
}

// BenchmarkSelectors measures each Table 1 selector over ϕTrail(Knows+)
// on the synthetic SNB graph.
func BenchmarkSelectors(b *testing.B) {
	g := benchGraph()
	for _, sel := range gql.AllSelectors(2) {
		pattern := rpq.Compile(rpq.MustParse(":Knows+"), core.Trail)
		plan, err := gql.CompileSelector(sel, pattern)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sel.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustEval(b, g, plan, Limits{MaxLen: 8})
			}
		})
	}
}

// BenchmarkRestrictors measures ϕ under each Table 2/3 semantics (Walk is
// length-bounded; the others terminate naturally).
func BenchmarkRestrictors(b *testing.B) {
	g := benchGraph()
	for _, sem := range core.AllSemantics() {
		plan := rpq.Compile(rpq.MustParse(":Knows+"), sem)
		lim := Limits{MaxLen: 6}
		b.Run(sem.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustEval(b, g, plan, lim)
			}
		})
	}
}

// BenchmarkGroupBy measures γψ for all 8 Table 4 keys over a fixed trail
// set.
func BenchmarkGroupBy(b *testing.B) {
	g := benchGraph()
	eng := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: 6}})
	trails, err := eng.EvalPaths(rpq.Compile(rpq.MustParse(":Knows+"), core.Trail))
	if err != nil {
		b.Fatal(err)
	}
	for _, key := range core.AllGroupKeys() {
		b.Run("γ"+key.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.EvalGroupBy(key, trails)
			}
		})
	}
}

// BenchmarkOrderBy measures τθ for all 7 Table 6 keys over a γSTL space.
func BenchmarkOrderBy(b *testing.B) {
	g := benchGraph()
	eng := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: 6}})
	trails, err := eng.EvalPaths(rpq.Compile(rpq.MustParse(":Knows+"), core.Trail))
	if err != nil {
		b.Fatal(err)
	}
	space := core.EvalGroupBy(core.GroupSTL, trails)
	for _, key := range core.AllOrderKeys() {
		b.Run("τ"+key.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.EvalOrderBy(key, space)
			}
		})
	}
}

// BenchmarkProjection measures Algorithm 1 with tight and loose bounds.
func BenchmarkProjection(b *testing.B) {
	g := benchGraph()
	eng := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: 6}})
	trails, err := eng.EvalPaths(rpq.Compile(rpq.MustParse(":Knows+"), core.Trail))
	if err != nil {
		b.Fatal(err)
	}
	space := core.EvalOrderBy(core.OrderPartition|core.OrderGroup|core.OrderPath,
		core.EvalGroupBy(core.GroupSTL, trails))
	cases := []struct {
		name                 string
		parts, groups, paths core.Count
	}{
		{"all", core.AllCount(), core.AllCount(), core.AllCount()},
		{"1-1-1", core.NCount(1), core.NCount(1), core.NCount(1)},
		{"first-per-group", core.AllCount(), core.AllCount(), core.NCount(1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.EvalProject(tc.parts, tc.groups, tc.paths, space)
			}
		})
	}
}

// BenchmarkTable7Pipelines runs the complete selector pipelines of
// Table 7 end to end (recursion + grouping + projection).
func BenchmarkTable7Pipelines(b *testing.B) {
	g := benchGraph()
	queries := map[string]string{
		"ALL_TRAIL":          `MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)`,
		"ANY_SHORTEST_TRAIL": `MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		"ALL_SHORTEST_TRAIL": `MATCH ALL SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		"SHORTEST_2_GROUP":   `MATCH SHORTEST 2 GROUP TRAIL p = (?x)-[:Knows+]->(?y)`,
	}
	for name, qs := range queries {
		plan := gql.MustCompile(qs)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustEval(b, g, plan, Limits{MaxLen: 6})
			}
		})
	}
}

// BenchmarkPushdownAblation compares the Figure 6 plan with and without
// predicate pushdown.
func BenchmarkPushdownAblation(b *testing.B) {
	g := benchGraph()
	plan := gql.MustCompile(`MATCH TRAIL p = (x {name:"Moe_1"})-[:Knows/:Knows/:Knows]->(?y)`)
	optimized := opt.Optimize(plan).Plan
	b.Run("unoptimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustEval(b, g, plan, Limits{})
		}
	})
	b.Run("pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustEval(b, g, optimized, Limits{})
		}
	})
}

// BenchmarkShortestRewriteAblation compares ANY SHORTEST WALK evaluated
// via bounded ϕWalk against the §7.3 ϕShortest rewrite.
func BenchmarkShortestRewriteAblation(b *testing.B) {
	g := benchGraph()
	plan := gql.MustCompile(`MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`)
	rewritten := opt.Optimize(plan).Plan
	b.Run("walk-bounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustEval(b, g, plan, Limits{MaxLen: 6})
		}
	})
	b.Run("shortest-rewrite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustEval(b, g, rewritten, Limits{})
		}
	})
}

// BenchmarkAlgebraVsAutomaton compares the algebraic engine against the
// classical automaton baseline on the same RPQ and semantics.
func BenchmarkAlgebraVsAutomaton(b *testing.B) {
	g := benchGraph()
	re := rpq.MustParse(":Knows+")
	for _, sem := range []core.Semantics{core.Trail, core.Acyclic, core.Shortest} {
		plan := rpq.Compile(re, sem)
		lim := core.Limits{MaxLen: 6}
		b.Run(fmt.Sprintf("algebra/%s", sem), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustEval(b, g, plan, lim)
			}
		})
		nfa := automaton.Build(re)
		b.Run(fmt.Sprintf("automaton/%s", sem), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := automaton.Eval(g, nfa, sem, lim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchEngineVsReference times plan on a fresh engine (sub-benchmark
// engine/<suffix>) and on the definitional evaluator core.EvalExpr
// (reference/<suffix>).
func benchEngineVsReference(b *testing.B, suffix string, g *Graph, plan PathExpr, lim Limits) {
	b.Run("engine"+suffix, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustEval(b, g, plan, lim)
		}
	})
	b.Run("reference"+suffix, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.EvalExpr(g, plan, lim); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJoinStrategies compares the engine's hash join against the
// Definition 3.1 nested loop of the reference evaluator on growing inputs.
func BenchmarkJoinStrategies(b *testing.B) {
	for _, persons := range []int{25, 50, 100} {
		g := ldbc.MustGenerate(ldbc.Config{
			Persons: persons, KnowsPerPerson: 4, CycleFraction: 0.2, Seed: 5,
		})
		plan := gql.MustCompile(`MATCH WALK p = (?x)-[:Knows/:Knows]->(?y)`)
		benchEngineVsReference(b, fmt.Sprintf("/persons=%d", persons), g, plan, Limits{})
	}
}

// BenchmarkSemanticsSweep sweeps cycle density: restrictive semantics pay
// for admissibility checks, and the admissible path count grows with
// cyclicity.
func BenchmarkSemanticsSweep(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1} {
		g := ldbc.MustGenerate(ldbc.Config{
			Persons: 40, KnowsPerPerson: 2, CycleFraction: frac, Seed: 23,
		})
		for _, sem := range []core.Semantics{core.Trail, core.Acyclic, core.Simple, core.Shortest} {
			plan := rpq.Compile(rpq.MustParse(":Knows+"), sem)
			b.Run(fmt.Sprintf("%s/cycles=%.1f", sem, frac), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mustEval(b, g, plan, Limits{MaxLen: 8})
				}
			})
		}
	}
}

// BenchmarkParser measures the §7 front-end alone.
func BenchmarkParser(b *testing.B) {
	query := `MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p =
		(?x:Person {name:"Moe"})-[(:Knows+)|(:Likes/:Has_creator)*]->(?y)
		WHERE len() <= 5 GROUP BY SOURCE TARGET ORDER BY PARTITION PATH`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gql.Parse(query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlushkov measures NFA construction.
func BenchmarkGlushkov(b *testing.B) {
	re := rpq.MustParse("((:A/:B)+|(:C|:D)*/:E)+/:F?")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		automaton.Build(re)
	}
}

// BenchmarkExpandAblation compares the engine's automaton-backed
// expansion fast path against the reference evaluator's materialize-then-
// close evaluation of the same recursion.
func BenchmarkExpandAblation(b *testing.B) {
	plan := rpq.Compile(rpq.MustParse("(:Likes/:Has_creator)+"), core.Trail)
	benchEngineVsReference(b, "", benchGraph(), plan, Limits{MaxLen: 6})
}

// BenchmarkCompose measures the §2.3 composed-query pipeline end to end.
func BenchmarkCompose(b *testing.B) {
	g := benchGraph()
	q1 := gql.MustParse(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)
	q2 := gql.MustParse(`MATCH TRAIL p = (?x)-[:Likes]->(?y)`)
	plan, err := ComposeQueries(Selector{}, TrailSemantics, q1, q2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustEval(b, g, plan, Limits{MaxLen: 5})
	}
}

// fanInGraph builds the planner's showcase workload: a large source
// population whose Likes edges converge on a handful of Message targets.
// Forward evaluation must expand from every person; backward evaluation
// seeds at the few targets and walks in-edges.
func fanInGraph(persons, messages int) *Graph {
	b := NewGraphBuilder()
	for i := 0; i < persons; i++ {
		b.AddNode(fmt.Sprintf("p%d", i), "Person", nil)
	}
	for i := 0; i < messages; i++ {
		b.AddNode(fmt.Sprintf("m%d", i), "Message", nil)
	}
	for i := 0; i < persons; i++ {
		b.AddEdge(fmt.Sprintf("l%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("m%d", i%messages), "Likes", nil)
	}
	// A Knows backbone feeding the Likes edges so forward paths are long.
	for i := 0; i+1 < persons; i++ {
		b.AddEdge(fmt.Sprintf("k%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i+1), "Knows", nil)
	}
	return b.MustBuild()
}

// BenchmarkDirection compares forward, backward and planner-chosen
// evaluation of a small-target-set query (σ[label(last)=Message] over
// (Knows|Likes)+): the planner should pick backward and match the forced-
// backward time. docs/history records the pre/post numbers.
func BenchmarkDirection(b *testing.B) {
	g := fanInGraph(400, 2)
	lim := Limits{MaxLen: 4}
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[(:Knows|:Likes)+]->(?y:Message)`)
	run := func(b *testing.B, p PathExpr, opts engine.Options) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := engine.New(g, opts)
			res, err := eng.EvalPaths(p)
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() == 0 {
				b.Fatal("empty result")
			}
		}
	}
	b.Run("forward", func(b *testing.B) {
		// The compiled plan evaluated as-is: forward expansion over every
		// source, filter afterwards.
		run(b, plan, engine.Options{Limits: lim})
	})
	b.Run("backward-planned", func(b *testing.B) {
		eng := engine.New(g, engine.Options{Limits: lim})
		planned, _ := eng.Plan(plan)
		if !gotBackward(planned) {
			b.Fatalf("planner did not choose backward: %s", planned)
		}
		run(b, planned, engine.Options{Limits: lim})
	})
}

// gotBackward reports whether any recursion in the plan is marked for
// backward evaluation.
func gotBackward(e PathExpr) bool {
	switch x := e.(type) {
	case core.Select:
		return gotBackward(x.In)
	case core.Join:
		return gotBackward(x.L) || gotBackward(x.R)
	case core.Union:
		return gotBackward(x.L) || gotBackward(x.R)
	case core.Recurse:
		return x.Dir == core.Backward || gotBackward(x.In)
	case core.Restrict:
		return gotBackward(x.In)
	default:
		return false
	}
}

// BenchmarkPlanCache measures planning cost with a cold cache (every
// iteration re-plans) versus a hot cache (every iteration hits). The
// allocation gap is the point: the hit path must allocate less than the
// cold path (gated in scripts/check_allocs.sh).
func BenchmarkPlanCache(b *testing.B) {
	g := benchGraph()
	plan := gql.MustCompile(
		`MATCH ANY SHORTEST WALK p = (?x:Person)-[(:Knows+)|(:Likes/:Has_creator)+]->(?y)`)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := engine.New(g, engine.Options{Limits: Limits{MaxLen: 4}})
			eng.Plan(plan)
		}
	})
	b.Run("hit", func(b *testing.B) {
		eng := engine.New(g, engine.Options{Limits: Limits{MaxLen: 4}})
		eng.Plan(plan) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Plan(plan)
		}
		if s := eng.Stats(); s.PlanCacheHits < int64(b.N) {
			b.Fatalf("expected cache hits, stats %+v", s)
		}
	})
	b.Run("live", func(b *testing.B) {
		// A live engine plans after every batch, the batch outside the
		// timer: the plan costed against the sealed base serves every
		// epoch until compaction. A fresh store every 256 batches keeps
		// the untimed Apply from growing with b.N; its first plan is the
		// one untimed miss.
		var store *Store
		var eng *Engine
		var hits, misses int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%256 == 0 {
				if store != nil {
					s := eng.Stats()
					hits, misses = hits+s.PlanCacheHits, misses+s.PlanCacheMisses-1
					store.Close()
				}
				store = NewStore(g, StoreOptions{CompactThreshold: -1})
				eng = NewEngineWithStore(store, EngineOptions{Limits: Limits{MaxLen: 4}})
				eng.Plan(plan)
			}
			if _, err := store.Apply(Batch{Ops: []Op{{Kind: OpAddNode, Key: fmt.Sprintf("live%d", i), Label: "Person"}}}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			eng.Plan(plan)
		}
		b.StopTimer()
		s := eng.Stats()
		hits, misses = hits+s.PlanCacheHits, misses+s.PlanCacheMisses-1
		store.Close()
		if hits != int64(b.N) || misses != 0 {
			b.Fatalf("%d plans after a batch: %d cache hits, %d timed misses; want every plan a hit", b.N, hits, misses)
		}
	})
}

// BenchmarkStatsBuild measures the one-pass statistics collection that
// graph.Build performs — the planner's fixed per-graph cost.
func BenchmarkStatsBuild(b *testing.B) {
	cfg := ldbc.Config{Persons: 2000, Messages: 3000, KnowsPerPerson: 3,
		LikesPerPerson: 2, CycleFraction: 0.3, Seed: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ldbc.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamDelivery measures the chunked-delivery overhead of
// RunStream against the equivalent batch Run: the streaming path must
// stay within a small constant number of extra allocations per chunk
// (gated in scripts/check_allocs.sh), since chunks are zero-copy views
// into the evaluated set.
func BenchmarkStreamDelivery(b *testing.B) {
	g := benchGraph()
	plan := gql.MustCompile(`MATCH WALK p = (?x)-[:Knows+]->(?y)`)
	lim := Limits{MaxLen: 4}
	b.Run("batch", func(b *testing.B) {
		eng := engine.New(g, engine.Options{Limits: lim})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		eng := engine.New(g, engine.Options{Limits: lim})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := eng.RunStream(context.Background(), plan, engine.StreamOptions{ChunkSize: 256})
			for {
				chunk, err := s.Next()
				if err != nil {
					b.Fatal(err)
				}
				if chunk == nil {
					break
				}
			}
		}
	})
}

// BenchmarkSnapshotOverlayRead runs the same recursive query over three
// physically distinct but logically related graphs:
//
//   - sealed: a from-scratch Build of base+delta — the pre-PR read path;
//   - empty-delta: a live store holding the same content after compaction
//     (ov == nil) — must allocate identically to sealed, gated in
//     scripts/check_allocs.sh;
//   - with-delta: the same content with the delta still in the COW
//     overlay (ov != nil) — documents the overlay read penalty.
func BenchmarkSnapshotOverlayRead(b *testing.B) {
	base := benchGraph()
	stream, err := ldbc.UpdateStream(ldbc.UpdateConfig{
		Batches: 1, OpsPerBatch: 32, ExistingPersons: 40, PersonFraction: 0.3, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	batch := stream[0]
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)
	lim := Limits{MaxLen: 5}

	overlayStore := NewStore(base, StoreOptions{CompactThreshold: -1})
	defer overlayStore.Close()
	if _, err := overlayStore.Apply(batch); err != nil {
		b.Fatal(err)
	}
	withDelta := overlayStore.Graph()

	compactStore := NewStore(base, StoreOptions{CompactThreshold: -1})
	defer compactStore.Close()
	if _, err := compactStore.Apply(batch); err != nil {
		b.Fatal(err)
	}
	if err := compactStore.Compact(); err != nil {
		b.Fatal(err)
	}
	emptyDelta := compactStore.Graph()

	sealed, err := withDelta.Rebuild()
	if err != nil {
		b.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"sealed", sealed},
		{"empty-delta", emptyDelta},
		{"with-delta", withDelta},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := engine.New(tc.g, engine.Options{Limits: lim})
				if _, err := eng.EvalPaths(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
