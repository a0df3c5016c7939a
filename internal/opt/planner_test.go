package opt_test

import (
	"strings"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/opt"
)

// fanInGraph builds a graph with many Likes sources converging on few
// targets: the shape where backward evaluation wins.
func fanInGraph(persons, messages int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < persons; i++ {
		b.AddNode(nodeKey("p", i), "Person", nil)
	}
	for i := 0; i < messages; i++ {
		b.AddNode(nodeKey("m", i), "Message", nil)
	}
	for i := 0; i < persons; i++ {
		b.AddEdge(nodeKey("e", i), nodeKey("p", i), nodeKey("m", i%messages), "Likes", nil)
	}
	return b.MustBuild()
}

func nodeKey(prefix string, i int) string {
	return prefix + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

func labelSelect(label string) core.PathExpr {
	return core.Select{Cond: cond.Label(cond.EdgeAt(1), label), In: core.Edges{}}
}

func TestPlanChoosesBackward(t *testing.T) {
	g := fanInGraph(60, 2)
	cm := &opt.CostModel{Stats: g.Stats(), Limits: core.Limits{MaxLen: 4}}
	plan := core.Recurse{Sem: core.Trail, In: labelSelect("Likes")}
	res := opt.Plan(plan, cm)
	rec, ok := res.Plan.(core.Recurse)
	if !ok {
		t.Fatalf("plan changed shape: %s", res.Plan)
	}
	if rec.Dir != core.Backward {
		t.Errorf("60 sources vs 2 targets: want Backward, got %v (applied %v)", rec.Dir, res.Applied)
	}
	if !contains(res.Applied, "choose-backward") {
		t.Errorf("applied rules %v missing choose-backward", res.Applied)
	}
}

func TestPlanKeepsForwardWhenBalanced(t *testing.T) {
	// A Likes ring: every node is source and target of exactly one edge —
	// no side is cheaper, so near-ties must stay forward.
	b := graph.NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode(nodeKey("n", i), "Person", nil)
	}
	for i := 0; i < 10; i++ {
		b.AddEdge(nodeKey("e", i), nodeKey("n", i), nodeKey("n", (i+1)%10), "Likes", nil)
	}
	g := b.MustBuild()
	cm := &opt.CostModel{Stats: g.Stats(), Limits: core.Limits{MaxLen: 4}}
	res := opt.Plan(core.Recurse{Sem: core.Trail, In: labelSelect("Likes")}, cm)
	if rec := res.Plan.(core.Recurse); rec.Dir != core.Forward {
		t.Errorf("balanced graph: want Forward, got %v", rec.Dir)
	}
}

// TestPlanDirectionOrderSafety: under a truncating projection the
// representative a selector picks depends on result order, so the planner
// must not flip direction there.
func TestPlanDirectionOrderSafety(t *testing.T) {
	g := fanInGraph(60, 2)
	cm := &opt.CostModel{Stats: g.Stats(), Limits: core.Limits{MaxLen: 4}}
	inner := core.Recurse{Sem: core.Trail, In: labelSelect("Likes")}
	plan := core.Project{
		Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
		In: core.GroupBy{Key: core.GroupST, In: inner},
	}
	res := opt.Plan(plan, cm)
	if strings.Contains(res.Plan.String(), "←") {
		t.Errorf("backward direction chosen under truncating π: %s", res.Plan)
	}
	// The same recursion with every level at * is order-insensitive, so
	// backward is allowed again.
	open := core.Project{
		Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.AllCount(),
		In: core.GroupBy{Key: core.GroupST, In: inner},
	}
	res = opt.Plan(open, cm)
	if !strings.Contains(res.Plan.String(), "←") {
		t.Errorf("backward direction not chosen under non-truncating π: %s", res.Plan)
	}
}

// TestPlanSeededDirectionUsesConds: a selective label condition on the
// target endpoint makes the backward seed set tiny even when the raw
// distinct counts are balanced.
func TestPlanSeededDirectionUsesConds(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 30; i++ {
		label := "Person"
		if i == 29 {
			label = "Celebrity"
		}
		b.AddNode(nodeKey("n", i), label, nil)
	}
	for i := 0; i < 29; i++ {
		b.AddEdge(nodeKey("e", i), nodeKey("n", i), nodeKey("n", i+1), "Knows", nil)
	}
	g := b.MustBuild()
	cm := &opt.CostModel{Stats: g.Stats(), Limits: core.Limits{MaxLen: 4}}
	plan := core.Select{
		Cond: cond.Label(cond.Last(), "Celebrity"),
		In:   core.Recurse{Sem: core.Trail, In: labelSelect("Knows")},
	}
	res := opt.Plan(plan, cm)
	sel, ok := res.Plan.(core.Select)
	if !ok {
		t.Fatalf("plan changed shape: %s", res.Plan)
	}
	if rec := sel.In.(core.Recurse); rec.Dir != core.Backward {
		t.Errorf("selective last-endpoint condition: want Backward, got %v", rec.Dir)
	}
}

func TestPlanReassociatesJoins(t *testing.T) {
	// b ⋈ b is a dense 10×10 bipartite blowup; c has 2 edges. The
	// left-deep chain (b⋈b)⋈c builds the blowup first; the planner should
	// flip to b⋈(b⋈c).
	gb := graph.NewBuilder()
	for i := 0; i < 10; i++ {
		gb.AddNode(nodeKey("s", i), "S", nil)
	}
	gb.AddNode("hub", "H", nil)
	for i := 0; i < 10; i++ {
		gb.AddNode(nodeKey("t", i), "T", nil)
	}
	k := 0
	for i := 0; i < 10; i++ {
		gb.AddEdge(nodeKey("x", k), nodeKey("s", i), "hub", "b", nil)
		k++
	}
	for i := 0; i < 10; i++ {
		gb.AddEdge(nodeKey("y", k), "hub", nodeKey("t", i), "b", nil)
		k++
	}
	gb.AddEdge("z1", nodeKey("t", 0), nodeKey("s", 0), "c", nil)
	gb.AddEdge("z2", nodeKey("t", 1), nodeKey("s", 1), "c", nil)
	g := gb.MustBuild()
	cm := &opt.CostModel{Stats: g.Stats(), Limits: core.Limits{}}

	leftDeep := core.Join{
		L: core.Join{L: labelSelect("b"), R: labelSelect("b")},
		R: labelSelect("c"),
	}
	res := opt.Plan(leftDeep, cm)
	if !contains(res.Applied, "reassociate-joins") {
		t.Fatalf("applied rules %v missing reassociate-joins (plan %s)", res.Applied, res.Plan)
	}
	j, ok := res.Plan.(core.Join)
	if !ok {
		t.Fatalf("plan is not a join: %s", res.Plan)
	}
	if _, rightNested := j.R.(core.Join); !rightNested {
		t.Errorf("want right-nested join b⋈(b⋈c), got %s", res.Plan)
	}
}

// TestPlanWalkToShortestLikeOptimize: opt.Plan rewrites Walk→Shortest
// exactly where opt.Optimize does, whatever the estimates and the MaxLen
// bound: on a tiny walk closure under MaxLen, on the order-sensitive ANY
// form, and with no MaxLen, where ϕWalk diverges.
func TestPlanWalkToShortestLikeOptimize(t *testing.T) {
	g := fanInGraph(6, 2)
	walk := core.Recurse{Sem: core.Walk, In: labelSelect("Likes")}
	pipelines := map[string]core.PathExpr{
		"ALL SHORTEST": core.Project{
			Parts: core.AllCount(), Groups: core.NCount(1), Paths: core.AllCount(),
			In: core.OrderBy{Key: core.OrderGroup,
				In: core.GroupBy{Key: core.GroupSTL, In: walk}},
		},
		"ANY SHORTEST": core.Project{
			Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
			In: core.OrderBy{Key: core.OrderPath,
				In: core.GroupBy{Key: core.GroupST, In: walk}},
		},
	}
	for name, plan := range pipelines {
		base := opt.Optimize(plan)
		if !strings.Contains(base.Plan.String(), "ϕShortest") {
			t.Fatalf("%s: Optimize should rewrite Walk→Shortest: %s", name, base.Plan)
		}
		for _, lim := range []core.Limits{{MaxLen: 3}, {}} {
			planned := opt.Plan(plan, &opt.CostModel{Stats: g.Stats(), Limits: lim})
			if planned.Plan.String() != base.Plan.String() {
				t.Errorf("%s, MaxLen %d: Plan gives %s (applied %v), Optimize %s",
					name, lim.MaxLen, planned.Plan, planned.Applied, base.Plan)
			}
		}
	}
}

// TestPlanWithoutStatsFallsBack pins the degraded mode.
func TestPlanWithoutStatsFallsBack(t *testing.T) {
	plan := core.Recurse{Sem: core.Trail, In: labelSelect("Likes")}
	res := opt.Plan(plan, nil)
	if res.Plan.String() != opt.Optimize(plan).Plan.String() {
		t.Errorf("nil cost model should behave like Optimize")
	}
}

// TestCardEstimates sanity-checks the cost model on a known graph.
func TestCardEstimates(t *testing.T) {
	g := fanInGraph(60, 2)
	cm := &opt.CostModel{Stats: g.Stats(), Limits: core.Limits{MaxLen: 4}}
	if got := cm.Card(core.Nodes{}); got != 62 {
		t.Errorf("Card(Nodes) = %v, want 62", got)
	}
	if got := cm.Card(core.Edges{}); got != 60 {
		t.Errorf("Card(Edges) = %v, want 60", got)
	}
	likes := labelSelect("Likes")
	if got := cm.Card(likes); got != 60 {
		t.Errorf("Card(σLikes Edges) = %v, want 60", got)
	}
	if got := cm.DistinctFirst(likes); got != 60 {
		t.Errorf("DistinctFirst(σLikes) = %v, want 60", got)
	}
	if got := cm.DistinctLast(likes); got != 2 {
		t.Errorf("DistinctLast(σLikes) = %v, want 2", got)
	}
	// Likes edges never chain (targets have no out-edges), so the closure
	// estimate should stay near the base cardinality.
	rec := core.Recurse{Sem: core.Walk, In: likes}
	if got := cm.Card(rec); got < 60 || got > 240 {
		t.Errorf("Card(ϕWalk σLikes) = %v, want ~60..240", got)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
