package opt_test

import (
	"math/rand"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/testutil"
)

// Per-rewrite metamorphic tests: for every rule in the optimizer, build
// random inputs where the rule fires and check — with the reference
// evaluator (core.EvalExpr), which knows nothing of the optimizer — that
// the rewritten plan returns exactly the original plan's path set.

var metamorphicLimits = core.Limits{MaxLen: 3}

// checkRewrite optimizes the plan, requires the rule to have fired, and
// compares reference-evaluated results before and after.
func checkRewrite(t *testing.T, g *graph.Graph, before core.PathExpr, rule string) {
	t.Helper()
	res := opt.Optimize(before)
	fired := false
	for _, r := range res.Applied {
		if r == rule {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("rule %s did not fire on %s (applied: %v)", rule, before, res.Applied)
	}
	want, err := core.EvalExpr(g, before, metamorphicLimits)
	if err != nil {
		t.Fatalf("reference(before) %s: %v", before, err)
	}
	got, err := core.EvalExpr(g, res.Plan, metamorphicLimits)
	if err != nil {
		t.Fatalf("reference(after) %s: %v", res.Plan, err)
	}
	if !got.Equal(want) {
		t.Errorf("rule %s changed results: before %s → %d paths, after %s → %d paths",
			rule, before, want.Len(), res.Plan, got.Len())
	}
}

func TestMergeSelectionsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		g := testutil.RandomGraph(rng)
		c1 := testutil.RandomCond(rng, 1)
		c2 := testutil.RandomCond(rng, 1)
		before := core.Select{Cond: c1, In: core.Select{Cond: c2, In: core.Edges{}}}
		checkRewrite(t, g, before, "merge-selections")
	}
}

func TestPushdownSelectionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	endpointConds := func() cond.Cond {
		targets := []cond.Target{cond.First(), cond.Last()}
		tgt := targets[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			return cond.Label(tgt, []string{"Person", "Message"}[rng.Intn(2)])
		}
		pc := cond.Prop(tgt, "id", graph.IntValue(int64(1+rng.Intn(5))))
		pc.Op = cond.GE
		return pc
	}
	for trial := 0; trial < 30; trial++ {
		g := testutil.RandomGraph(rng)
		c := endpointConds()
		if rng.Intn(2) == 0 {
			c = cond.And{L: c, R: endpointConds()}
		}
		inner := testutil.RandomPlan(rng, 1)
		other := testutil.RandomPlan(rng, 1)
		if !testutil.IsTruncationFree(inner) || !testutil.IsTruncationFree(other) {
			continue
		}
		var before core.PathExpr
		if rng.Intn(2) == 0 {
			before = core.Select{Cond: c, In: core.Join{L: inner, R: other}}
		} else {
			before = core.Select{Cond: c, In: core.Union{L: inner, R: other}}
		}
		checkRewrite(t, g, before, "pushdown-selection")
	}
}

func TestDropRedundantRestrictEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 30; trial++ {
		g := testutil.RandomGraph(rng)
		sem := testutil.RandomSemantics(rng)
		in := testutil.RandomPlan(rng, 1)
		if !testutil.IsTruncationFree(in) {
			continue
		}
		var before core.PathExpr
		switch rng.Intn(3) {
		case 0:
			before = core.Restrict{Sem: core.Walk, In: in}
		case 1:
			before = core.Restrict{Sem: sem, In: core.Recurse{Sem: sem, In: core.Select{
				Cond: cond.Label(cond.EdgeAt(1), "Knows"), In: core.Edges{}}}}
		default:
			before = core.Restrict{Sem: sem, In: core.Restrict{Sem: sem, In: in}}
		}
		checkRewrite(t, g, before, "drop-redundant-restrict")
	}
}

func TestDropNoopOrderByEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 30; trial++ {
		g := testutil.RandomGraph(rng)
		in := testutil.RandomPlan(rng, 1)
		if !testutil.IsTruncationFree(in) {
			continue
		}
		// τPG over γ∅ ranks a single partition holding a single group —
		// a no-op (§6); the projection keeps everything, so the result is
		// set-determined and reference-comparable.
		before := core.Project{
			Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.AllCount(),
			In: core.OrderBy{
				Key: core.OrderPartition | core.OrderGroup,
				In:  core.GroupBy{Key: core.GroupNone, In: in},
			},
		}
		checkRewrite(t, g, before, "drop-noop-orderby")
	}
}

// TestWalkToShortestEquivalence checks the recursion rewrite on its
// set-determined pipeline forms (ALL SHORTEST and the §7.3 globally-
// shortest example) by reference-evaluated set equality, and on the
// order-sensitive ANY SHORTEST form by the weaker — but order-free —
// property that actually defines it: one path per endpoint pair, each a
// minimal-length path of that pair, pairs identical to the unrewritten
// plan's — and, evaluated by the engine, by in-order equality.
func TestWalkToShortestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	pattern := func() core.PathExpr {
		labels := []string{"Knows", "Likes", "Has_creator"}
		base := core.PathExpr(core.Select{
			Cond: cond.Label(cond.EdgeAt(1), labels[rng.Intn(3)]), In: core.Edges{}})
		if rng.Intn(2) == 0 {
			base = core.Union{L: base, R: core.Select{
				Cond: cond.Label(cond.EdgeAt(1), labels[rng.Intn(3)]), In: core.Edges{}}}
		}
		return core.Recurse{Sem: core.Walk, In: base}
	}
	for trial := 0; trial < 20; trial++ {
		g := testutil.RandomGraph(rng)
		walk := pattern()

		allShortest := core.Project{
			Parts: core.AllCount(), Groups: core.NCount(1), Paths: core.AllCount(),
			In: core.OrderBy{Key: core.OrderGroup,
				In: core.GroupBy{Key: core.GroupSTL, In: walk}},
		}
		checkRewrite(t, g, allShortest, "walk-to-shortest")

		globally := core.Project{
			Parts: core.NCount(1), Groups: core.NCount(1), Paths: core.AllCount(),
			In: core.OrderBy{Key: core.OrderGroup,
				In: core.GroupBy{Key: core.GroupLength, In: walk}},
		}
		checkRewrite(t, g, globally, "walk-to-shortest")

		anyShortest := core.Project{
			Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
			In: core.OrderBy{Key: core.OrderPath,
				In: core.GroupBy{Key: core.GroupST, In: walk}},
		}
		res := opt.Optimize(anyShortest)
		before, err := core.EvalExpr(g, anyShortest, metamorphicLimits)
		if err != nil {
			t.Fatal(err)
		}
		after, err := core.EvalExpr(g, res.Plan, metamorphicLimits)
		if err != nil {
			t.Fatal(err)
		}
		checkAnyShortest(t, before, after)

		// The engine answers ϕShortest as the Walk search under a
		// one-length quota, so there the rewrite keeps even the
		// representative: both plans return the same paths in order.
		eng := engine.New(g, engine.Options{Limits: metamorphicLimits})
		before, err = eng.EvalPaths(anyShortest)
		if err != nil {
			t.Fatal(err)
		}
		after, err = eng.EvalPaths(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.SameSequence(before, after) {
			t.Errorf("%s: engine picks different representatives after the rewrite (%s)", anyShortest, res.Plan)
		}
	}
}

// checkAnyShortest verifies ANY SHORTEST's order-free contract between
// two candidate answers: the same endpoint pairs, one path per pair, and
// equal (minimal) lengths per pair.
func checkAnyShortest(t *testing.T, before, after *pathset.Set) {
	t.Helper()
	type pair struct{ s, d graph.NodeID }
	lens := func(s *pathset.Set) map[pair]int {
		m := make(map[pair]int)
		for _, p := range s.Paths() {
			k := pair{p.First(), p.Last()}
			if prev, ok := m[k]; ok {
				t.Errorf("two paths for pair %v (lens %d, %d)", k, prev, p.Len())
			}
			m[k] = p.Len()
		}
		return m
	}
	b, a := lens(before), lens(after)
	if len(b) != len(a) {
		t.Errorf("pair sets differ: before %d pairs, after %d", len(b), len(a))
		return
	}
	for k, bl := range b {
		al, ok := a[k]
		if !ok {
			t.Errorf("pair %v missing after rewrite", k)
		} else if al != bl {
			t.Errorf("pair %v: minimal length %d before, %d after", k, bl, al)
		}
	}
}
