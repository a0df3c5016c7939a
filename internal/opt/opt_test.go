package opt_test

import (
	"errors"
	"strings"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/testutil"
)

func applied(res opt.Result, rule string) bool {
	for _, r := range res.Applied {
		if r == rule {
			return true
		}
	}
	return false
}

func knowsSel() core.Select {
	return core.Select{Cond: cond.Label(cond.EdgeAt(1), "Knows"), In: core.Edges{}}
}

// TestFigure6Pushdown reproduces the paper's Figure 6: the selection
// σ[first.name=Moe] over a join moves onto the join's left input.
func TestFigure6Pushdown(t *testing.T) {
	before := core.Select{
		Cond: cond.Prop(cond.First(), "name", graph.StringValue("Moe")),
		In:   core.Join{L: knowsSel(), R: knowsSel()},
	}
	res := opt.Optimize(before)
	if !applied(res, "pushdown-selection") {
		t.Fatalf("pushdown did not fire; applied = %v", res.Applied)
	}
	want := core.Join{
		L: core.Select{
			Cond: cond.And{
				L: cond.Label(cond.EdgeAt(1), "Knows"),
				R: cond.Prop(cond.First(), "name", graph.StringValue("Moe")),
			},
			In: core.Edges{},
		},
		R: knowsSel(),
	}
	// After pushdown the moved selection merges with the inner one.
	if !core.Equal(res.Plan, want) {
		t.Errorf("optimized plan = %s\nwant %s", res.Plan, want)
	}
}

// TestPushdownLastGoesRight: last-node conditions move to the right join
// input.
func TestPushdownLastGoesRight(t *testing.T) {
	before := core.Select{
		Cond: cond.Prop(cond.Last(), "name", graph.StringValue("Apu")),
		In:   core.Join{L: knowsSel(), R: knowsSel()},
	}
	res := opt.Optimize(before)
	j, ok := res.Plan.(core.Join)
	if !ok {
		t.Fatalf("top = %T, want Join", res.Plan)
	}
	if !strings.Contains(j.R.String(), "Apu") {
		t.Errorf("last-condition not on right input: %s", res.Plan)
	}
	if strings.Contains(j.L.String(), "Apu") {
		t.Errorf("last-condition leaked into left input: %s", res.Plan)
	}
}

// TestPushdownSplitsConjunction: first- and last-conditions of one
// conjunction split across both join inputs; the unsplittable residue
// stays above.
func TestPushdownSplitsConjunction(t *testing.T) {
	before := core.Select{
		Cond: cond.Conj(
			cond.Prop(cond.First(), "name", graph.StringValue("Moe")),
			cond.Prop(cond.Last(), "name", graph.StringValue("Apu")),
			cond.Len(2),
		),
		In: core.Join{L: knowsSel(), R: knowsSel()},
	}
	res := opt.Optimize(before)
	top, ok := res.Plan.(core.Select)
	if !ok {
		t.Fatalf("top = %T, want residual Select", res.Plan)
	}
	if top.Cond.String() != "len() = 2" {
		t.Errorf("residual condition = %s, want len() = 2", top.Cond)
	}
	j, ok := top.In.(core.Join)
	if !ok {
		t.Fatalf("below residual = %T, want Join", top.In)
	}
	if !strings.Contains(j.L.String(), "Moe") || !strings.Contains(j.R.String(), "Apu") {
		t.Errorf("conjuncts not split: %s", res.Plan)
	}
}

// TestPushdownThroughUnion: selections distribute over unions.
func TestPushdownThroughUnion(t *testing.T) {
	before := core.Select{
		Cond: cond.Len(1),
		In:   core.Union{L: knowsSel(), R: core.Nodes{}},
	}
	res := opt.Optimize(before)
	u, ok := res.Plan.(core.Union)
	if !ok {
		t.Fatalf("top = %T, want Union", res.Plan)
	}
	if _, ok := u.R.(core.Select); !ok {
		t.Errorf("selection not distributed to right branch: %s", res.Plan)
	}
}

// TestNoPushdownThroughRecursion: endpoint conditions must NOT cross ϕ
// (intermediate closure paths start anywhere).
func TestNoPushdownThroughRecursion(t *testing.T) {
	before := core.Select{
		Cond: cond.Prop(cond.First(), "name", graph.StringValue("Moe")),
		In:   core.Recurse{Sem: core.Trail, In: knowsSel()},
	}
	res := opt.Optimize(before)
	sel, ok := res.Plan.(core.Select)
	if !ok {
		t.Fatalf("selection moved; top = %T", res.Plan)
	}
	if _, ok := sel.In.(core.Recurse); !ok {
		t.Errorf("selection crossed the recursive operator: %s", res.Plan)
	}
}

// TestPushdownPreservesResults: optimized and unoptimized plans agree on
// the Figure 1 graph for a spread of queries.
func TestPushdownPreservesResults(t *testing.T) {
	g := ldbc.Figure1()
	queries := []string{
		`MATCH TRAIL p = (x {name:"Moe"})-[:Knows/:Knows]->(?y)`,
		`MATCH SIMPLE p = (x {name:"Moe"})-[(:Knows+)|(:Likes/:Has_creator)+]->(y {name:"Apu"})`,
		`MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ACYCLIC p = (?x)-[:Knows|:Likes]->(?y) WHERE last.name = "Apu" OR len() = 1`,
		`MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[:Knows*]->(?y) GROUP BY TARGET ORDER BY PATH`,
	}
	for _, qs := range queries {
		plan := gql.MustCompile(qs)
		res := opt.Optimize(plan)
		e1 := engine.New(g, engine.Options{})
		want, err := e1.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s (unoptimized): %v", qs, err)
		}
		e2 := engine.New(g, engine.Options{})
		got, err := e2.EvalPaths(res.Plan)
		if err != nil {
			t.Fatalf("%s (optimized): %v", qs, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: optimization changed the result\nbefore:\n%s\nafter:\n%s",
				qs, want.Format(g), got.Format(g))
		}
	}
}

// TestWalkToShortestAnyShortest: the §7.3 rewrite turns the diverging
// ANY SHORTEST WALK plan into a terminating ϕShortest plan.
func TestWalkToShortestAnyShortest(t *testing.T) {
	plan := gql.MustCompile(`MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`)
	res := opt.Optimize(plan)
	if !applied(res, "walk-to-shortest") {
		t.Fatalf("walk-to-shortest did not fire; applied = %v, plan = %s", res.Applied, res.Plan)
	}
	if !strings.Contains(res.Plan.String(), "ϕShortest") {
		t.Errorf("rewritten plan lacks ϕShortest: %s", res.Plan)
	}
	// The rewritten plan terminates on the cyclic Figure 1 graph with no
	// budget...
	g := ldbc.Figure1()
	eng := engine.New(g, engine.Options{})
	got, err := eng.EvalPaths(res.Plan)
	if err != nil {
		t.Fatalf("optimized plan failed: %v", err)
	}
	// ...and returns one shortest path per connected (s,t) pair of the
	// Knows closure: 9 pairs.
	if got.Len() != 9 {
		t.Errorf("ANY SHORTEST result = %d paths, want 9", got.Len())
	}
	// The unoptimized plan diverges (budget error) on the same graph under
	// the definitional evaluation — ϕWalk over a cycle is infinite. (The
	// engine itself no longer diverges on it: the selector's per-pair quota
	// is pushed into the product search, see TestQuotaWalkTerminates.)
	lim := core.Limits{MaxPaths: 10000}
	if _, err := core.EvalExpr(g, plan, lim); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("reference ANY SHORTEST WALK on a cyclic graph: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestQuotaWalkTerminates: selector pipelines over ϕWalk that no rewrite
// turns into ϕShortest terminate on the cyclic Figure 1 graph with no
// limits at all, because the per-pair quota prunes the walk search — and
// they return what the definition returns once it is given the MaxLen it
// needs to terminate (the longest path the engine kept).
func TestQuotaWalkTerminates(t *testing.T) {
	g := ldbc.Figure1()
	for _, tc := range []struct {
		query string
		// setDetermined: which paths survive does not depend on discovery
		// order, so the reference must return the very same set.
		setDetermined bool
	}{
		{`MATCH ANY 2 WALK p = (?x)-[:Knows+]->(?y)`, false},
		{`MATCH SHORTEST 2 GROUP WALK p = (?x)-[:Knows+]->(?y)`, true},
		{`MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`, false}, // unoptimized: still ϕWalk
	} {
		plan := gql.MustCompile(tc.query)
		eng := engine.New(g, engine.Options{})
		got, err := eng.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s with zero Limits: %v", tc.query, err)
		}
		if eng.Stats().QuotaRecursions != 1 {
			t.Errorf("%s: QuotaRecursions = %d, want 1", tc.query, eng.Stats().QuotaRecursions)
		}
		maxLen := 0
		for _, p := range got.Paths() {
			maxLen = max(maxLen, p.Len())
		}
		want, err := core.EvalExpr(g, plan, core.Limits{MaxLen: maxLen})
		if err != nil {
			t.Fatalf("%s reference at MaxLen %d: %v", tc.query, maxLen, err)
		}
		if tc.setDetermined {
			if !got.Equal(want) {
				t.Errorf("%s: engine %d paths != reference %d paths", tc.query, got.Len(), want.Len())
			}
			continue
		}
		// Which k paths of a pair survive is the evaluator's choice; how
		// many, and that they are answers at all, is not.
		gb, _ := core.BottomGroupBy(plan.(core.Project).In)
		all, err := core.EvalExpr(g, gb.In, core.Limits{MaxLen: maxLen})
		if err != nil {
			t.Fatalf("%s reference closure: %v", tc.query, err)
		}
		for _, p := range got.Paths() {
			if !all.Contains(p) {
				t.Errorf("%s: engine kept %s, not a path of the closure", tc.query, p.Format(g))
			}
		}
		gotPairs, wantPairs := testutil.PairLengths(got), testutil.PairLengths(want)
		if len(gotPairs) != len(wantPairs) {
			t.Errorf("%s: engine %d pairs, reference %d", tc.query, len(gotPairs), len(wantPairs))
		}
		for pair, n := range wantPairs {
			if len(gotPairs[pair]) != len(n) {
				t.Errorf("%s: pair %v: engine kept %d paths, reference %d", tc.query, pair, len(gotPairs[pair]), len(n))
			}
		}
	}
}

// TestWalkToShortestAllShortest covers the τG/γSTL pattern.
func TestWalkToShortestAllShortest(t *testing.T) {
	plan := gql.MustCompile(`MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)`)
	res := opt.Optimize(plan)
	if !applied(res, "walk-to-shortest") {
		t.Fatalf("walk-to-shortest did not fire on ALL SHORTEST; plan = %s", res.Plan)
	}
	g := ldbc.Figure1()
	eng := engine.New(g, engine.Options{})
	got, err := eng.EvalPaths(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// All shortest Knows+ paths per pair — exactly ϕShortest's output (9).
	if got.Len() != 9 {
		t.Errorf("ALL SHORTEST = %d paths, want 9", got.Len())
	}
}

// TestWalkToShortestGlobal covers the paper's π(1,1,*)(τG(γL(ϕWalk)))
// example.
func TestWalkToShortestGlobal(t *testing.T) {
	plan := core.Project{
		Parts: core.NCount(1), Groups: core.NCount(1), Paths: core.AllCount(),
		In: core.OrderBy{Key: core.OrderGroup,
			In: core.GroupBy{Key: core.GroupLength,
				In: core.Recurse{Sem: core.Walk, In: knowsSel()}}},
	}
	res := opt.Optimize(plan)
	if !applied(res, "walk-to-shortest") {
		t.Fatalf("walk-to-shortest did not fire; plan = %s", res.Plan)
	}
	g := ldbc.Figure1()
	eng := engine.New(g, engine.Options{})
	got, err := eng.EvalPaths(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Globally shortest Knows+ walks: the four single edges.
	if got.Len() != 4 {
		t.Errorf("global shortest = %d paths, want 4:\n%s", got.Len(), got.Format(g))
	}
}

// TestWalkToShortestRespectsLengthFilter: a len() filter between the
// pipeline and ϕWalk blocks the rewrite.
func TestWalkToShortestRespectsLengthFilter(t *testing.T) {
	plan := core.Project{
		Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
		In: core.OrderBy{Key: core.OrderPath,
			In: core.GroupBy{Key: core.GroupST,
				In: core.Select{
					Cond: cond.LenCmp{Op: cond.GE, K: 2},
					In:   core.Recurse{Sem: core.Walk, In: knowsSel()}}}},
	}
	res := opt.Optimize(plan)
	if strings.Contains(res.Plan.String(), "ϕShortest") {
		t.Errorf("rewrite crossed a length filter: %s", res.Plan)
	}
}

// TestWalkToShortestNotForShortestK: SHORTEST k with k > 1 must keep Walk
// (the 2nd-shortest path would be lost).
func TestWalkToShortestNotForShortestK(t *testing.T) {
	plan := gql.MustCompile(`MATCH SHORTEST 2 WALK p = (?x)-[:Knows+]->(?y)`)
	res := opt.Optimize(plan)
	if strings.Contains(res.Plan.String(), "ϕShortest") {
		t.Errorf("SHORTEST 2 must not rewrite to ϕShortest: %s", res.Plan)
	}
}

// TestDropNoopOrderBy reproduces the §6 redundancy example: τPG over γ∅ is
// a no-op and disappears.
func TestDropNoopOrderBy(t *testing.T) {
	plan := core.Project{
		Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
		In: core.OrderBy{Key: core.OrderPartition | core.OrderGroup,
			In: core.GroupBy{Key: core.GroupNone,
				In: core.Recurse{Sem: core.Trail, In: knowsSel()}}},
	}
	res := opt.Optimize(plan)
	if !applied(res, "drop-noop-orderby") {
		t.Fatalf("drop-noop-orderby did not fire; plan = %s", res.Plan)
	}
	proj, ok := res.Plan.(core.Project)
	if !ok {
		t.Fatalf("top = %T", res.Plan)
	}
	if _, ok := proj.In.(core.GroupBy); !ok {
		t.Errorf("order-by not removed: %s", res.Plan)
	}
}

// TestDropOrderByPartialBits: only the no-op components vanish.
func TestDropOrderByPartialBits(t *testing.T) {
	plan := core.Project{
		Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
		In: core.OrderBy{Key: core.OrderPartition | core.OrderGroup | core.OrderPath,
			In: core.GroupBy{Key: core.GroupST,
				In: core.Recurse{Sem: core.Trail, In: knowsSel()}}},
	}
	res := opt.Optimize(plan)
	proj := res.Plan.(core.Project)
	ord, ok := proj.In.(core.OrderBy)
	if !ok {
		t.Fatalf("order-by fully removed: %s", res.Plan)
	}
	// γST has partitions (P meaningful) but one group each (G is no-op).
	if ord.Key != core.OrderPartition|core.OrderPath {
		t.Errorf("order key = %s, want PA", ord.Key)
	}
}

// TestMergeSelections: stacked σ collapse into one conjunction.
func TestMergeSelections(t *testing.T) {
	plan := core.Select{
		Cond: cond.Len(1),
		In: core.Select{
			Cond: cond.Label(cond.EdgeAt(1), "Knows"),
			In:   core.Recurse{Sem: core.Trail, In: knowsSel()},
		},
	}
	res := opt.Optimize(plan)
	if !applied(res, "merge-selections") {
		t.Fatalf("merge did not fire; applied = %v", res.Applied)
	}
	sel, ok := res.Plan.(core.Select)
	if !ok {
		t.Fatalf("top = %T", res.Plan)
	}
	if _, ok := sel.In.(core.Recurse); !ok {
		t.Errorf("selections not merged: %s", res.Plan)
	}
}

// TestOptimizeIdempotent: a second pass over an optimized plan changes
// nothing.
func TestOptimizeIdempotent(t *testing.T) {
	queries := []string{
		`MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`,
		`MATCH SIMPLE p = (x {name:"Moe"})-[:Knows/:Knows]->(y {name:"Apu"})`,
	}
	for _, qs := range queries {
		first := opt.Optimize(gql.MustCompile(qs))
		second := opt.Optimize(first.Plan)
		if len(second.Applied) != 0 {
			t.Errorf("%s: second pass applied %v", qs, second.Applied)
		}
		if !core.Equal(first.Plan, second.Plan) {
			t.Errorf("%s: second pass changed the plan", qs)
		}
	}
}

// TestOptimizeReducesIntermediates: pushdown shrinks the engine's
// intermediate result counts on the Figure 1 graph (the Figure 6 claim).
func TestOptimizeReducesIntermediates(t *testing.T) {
	g := ldbc.Figure1()
	plan := gql.MustCompile(`MATCH TRAIL p = (x {name:"Moe"})-[:Knows/:Knows]->(?y)`)
	e1 := engine.New(g, engine.Options{})
	if _, err := e1.EvalPaths(plan); err != nil {
		t.Fatal(err)
	}
	res := opt.Optimize(plan)
	e2 := engine.New(g, engine.Options{})
	if _, err := e2.EvalPaths(res.Plan); err != nil {
		t.Fatal(err)
	}
	if e2.Stats().JoinProbes >= e1.Stats().JoinProbes {
		t.Errorf("optimization did not reduce join probes: %d vs %d",
			e2.Stats().JoinProbes, e1.Stats().JoinProbes)
	}
}
