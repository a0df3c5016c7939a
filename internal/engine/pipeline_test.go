package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/testutil"
)

// oracleProject is the selector pipeline p evaluated operator by operator
// by the reference implementations over in.
func oracleProject(p core.Project, in *pathset.Set) *pathset.Set {
	out, err := testutil.Unpushed(func(core.PathExpr) (*pathset.Set, error) { return in, nil }, p)
	if err != nil {
		panic(err)
	}
	return out
}

// pipelineCase is one π∘τ*∘γ shape, as a plan over a placeholder input
// and as the selector the engine reads off that plan.
type pipelineCase struct {
	plan core.Project
	sel  selector
}

func newPipelineCase(t testing.TB, g core.GroupKey, chain []core.OrderKey, parts, groups, paths core.Count) pipelineCase {
	var space core.SpaceExpr = core.GroupBy{Key: g, In: core.Edges{}}
	for _, k := range chain {
		space = core.OrderBy{Key: k, In: space}
	}
	x := core.Project{Parts: parts, Groups: groups, Paths: paths, In: space}
	sel, _, err := pipelineOf(x, opt.Derive(x).Root)
	if err != nil {
		t.Fatalf("%s: %v", x, err)
	}
	return pipelineCase{plan: x, sel: sel}
}

// pipelineChains lists no τ, each τ key, and every ordered τ∘τ pair.
func pipelineChains() [][]core.OrderKey {
	chains := [][]core.OrderKey{nil}
	for _, k := range core.AllOrderKeys() {
		chains = append(chains, []core.OrderKey{k})
	}
	for _, k1 := range core.AllOrderKeys() {
		for _, k2 := range core.AllOrderKeys() {
			chains = append(chains, []core.OrderKey{k1, k2})
		}
	}
	return chains
}

// pipelineBounds lists *, 1, 2 and 3, each also descending.
func pipelineBounds() []core.Count {
	var out []core.Count
	for _, c := range []core.Count{core.AllCount(), core.NCount(1), core.NCount(2), core.NCount(3)} {
		out = append(out, c, c.Descending())
	}
	return out
}

// TestFusedPipelineOracle: the engine's one-node π∘τ*∘γ returns the same
// paths in the same order as core's γ, τ and π applied one after the
// other, for the 8 γ keys × no τ, the 7 τ keys and every τ∘τ pair ×
// bounds *, 1, 2, 3 (each also descending). The randomized generator's
// sets get every key and chain under 29 bound triples: each bound on one
// level with * on the others, and on all three at once. Every output of
// the quota-pushdown differential gets a seeded sample of the full cross.
func TestFusedPipelineOracle(t *testing.T) {
	bounds := pipelineBounds()
	all := core.AllCount()
	var triples [][3]core.Count
	for _, b := range bounds {
		for _, tr := range [][3]core.Count{{b, all, all}, {all, b, all}, {all, all, b}, {b, b, b}} {
			if !slices.Contains(triples, tr) {
				triples = append(triples, tr)
			}
		}
	}
	var cases []pipelineCase
	for _, g := range core.AllGroupKeys() {
		for _, chain := range pipelineChains() {
			for _, b := range triples {
				cases = append(cases, newPipelineCase(t, g, chain, b[0], b[1], b[2]))
			}
		}
	}
	check := func(name string, c pipelineCase, in *pathset.Set) {
		t.Helper()
		got, _, _ := c.sel.project(in)
		if want := oracleProject(c.plan, in); !testutil.SameSequence(got, want) {
			t.Fatalf("%s: %s over %d paths: fused node returns %d paths, operators %d, or another order\n fused: %v\n oracle: %v",
				name, c.plan, in.Len(), got.Len(), want.Len(), got.Paths(), want.Paths())
		}
	}

	// The randomized generator's sets.
	sets, trials := 6, 0
	if testing.Short() {
		sets = 2
	}
	var sizes []int
	rng := rand.New(rand.NewSource(20261017))
	lim := core.Limits{MaxLen: 3}
	checked := 0
	for n := 0; n < sets; trials++ {
		g := testutil.RandomGraph(rng)
		plan := testutil.RandomPlan(rng, 3)
		in, err := New(g, Options{Limits: lim}).Run(plan)
		if err != nil {
			t.Fatalf("trial%d %s: %v", trials, plan, err)
		}
		if in.Len() < 8 || in.Len() > 150 {
			continue
		}
		n++
		sizes = append(sizes, in.Len())
		for _, c := range cases {
			check(fmt.Sprintf("trial%d", trials), c, in)
			checked++
		}
	}
	check("empty", cases[0], pathset.New(0))

	// Every output of the quota-pushdown differential, under a sample.
	full := 0
	quotaOutputs(t, func(name string, out *pathset.Set) {
		for i := 0; i < 4; i++ {
			c := newPipelineCase(t,
				core.AllGroupKeys()[rng.Intn(8)],
				pipelineChains()[rng.Intn(57)],
				bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))])
			check(name, c, out)
			full++
		}
	})
	t.Logf("%d pipelines over %d generated sets of %v paths and %d over the quota differential's outputs equal the operators in sequence",
		checked, sets, sizes, full)
}

// quotaOutputs evaluates every plan form of TestQuotaPushdownDifferential
// (as compiled, as planned, and both backward) and hands each result to
// visit.
func quotaOutputs(t *testing.T, visit func(name string, out *pathset.Set)) {
	lim := core.Limits{MaxLen: 4}
	forEachQuotaQuery(t, quotaTrials(), func(name string, g *graph.Graph, _ quotaSelector, logical core.PathExpr) {
		planned, _ := New(g, Options{Limits: lim}).Plan(logical)
		for form, plan := range map[string]core.PathExpr{
			"compiled": logical, "planned": planned,
			"compiled←": flipBackward(logical), "planned←": flipBackward(planned),
		} {
			out, err := New(g, Options{Limits: lim}).EvalPaths(plan)
			if err != nil {
				t.Fatalf("%s %s: %v", name, form, err)
			}
			visit(name+" "+form, out)
		}
	})
}

// pipelineSink keeps BenchmarkSelectorPipeline's result live.
var pipelineSink *pathset.Set

// BenchmarkSelectorPipeline times the selector node alone — π over its τ
// and γ — over the pre-evaluated input of two selectors templates on the
// selectors workload's frozen graph (50 persons, graph seed 1, MaxLen 7).
// scripts/check_allocs.sh gates its allocs/op.
func BenchmarkSelectorPipeline(b *testing.B) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 50, Messages: 100, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1,
	})
	e := New(g, Options{Limits: core.Limits{MaxLen: 7}})
	for _, q := range []string{
		"MATCH SHORTEST 2 GROUP ACYCLIC p = (?x)-[:Knows+]->(?y)",
		"MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
	} {
		logical, err := compileQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		ent, _ := e.plan(logical)
		root := ent.derived.Root
		sel, src, err := pipelineOf(root.Path.(core.Project), root)
		if err != nil {
			b.Fatal(err)
		}
		in, err := e.eval(context.Background(), src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q[len("MATCH "):len(q)-len(" p = (?x)-[:Knows+]->(?y)")], func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(in.Len()), "paths_in/op")
			for i := 0; i < b.N; i++ {
				pipelineSink, _, _ = sel.project(in)
			}
		})
	}
}

// TestSelectorsInTruncatingPlans runs testutil.RandomSelectorPlan's plans
// — selector pipelines over truncation-free inputs under ⋈, ∪, σ or
// another pipeline, truncating only where no tie decides what survives —
// with the planner on and off against core.EvalExpr. The randomized
// differential compares truncating plans engine against engine only.
func TestSelectorsInTruncatingPlans(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(20261018))
	lim := core.Limits{MaxLen: 3}
	graphs := make([]*graph.Graph, 6)
	for i := range graphs {
		graphs[i] = testutil.RandomGraph(rng)
	}
	quota, nonEmpty := 0, 0
	for trial := 0; trial < trials; trial++ {
		g := graphs[trial%len(graphs)]
		plan := testutil.RandomSelectorPlan(rng)
		if testutil.IsTruncationFree(plan) {
			t.Fatalf("trial%d: %s does not truncate", trial, plan)
		}
		want, err := core.EvalExpr(g, plan, lim)
		if err != nil {
			t.Fatalf("trial%d %s: reference: %v", trial, plan, err)
		}
		pushed := false
		for _, off := range []bool{false, true} {
			e := New(g, Options{Limits: lim, DisablePlanner: off})
			got, err := e.Run(plan)
			if err != nil {
				t.Fatalf("trial%d %s (planner off: %v): %v", trial, plan, off, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial%d %s (planner off: %v): engine %d paths, reference %d\n engine:\n%s reference:\n%s",
					trial, plan, off, got.Len(), want.Len(), renderSet(g, got), renderSet(g, want))
			}
			pushed = pushed || e.Stats().QuotaRecursions > 0
		}
		if pushed {
			quota++
		}
		if want.Len() > 0 {
			nonEmpty++
		}
	}
	if quota == 0 || nonEmpty < trials/2 {
		t.Errorf("generator coverage hole: %d of %d plans pushed a quota, %d non-empty", quota, trials, nonEmpty)
	}
	t.Logf("%d truncating plans with a selector pipeline over a truncation-free input equal the reference; %d pushed a quota, %d non-empty",
		trials, quota, nonEmpty)
}
