package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/testutil"
)

// The randomized differential harness: ~500 seeded random plans spanning
// all five semantics, all restrictors and every operator (σ, ⋈, ∪, ϕ, ρ,
// γ, τ, π) over seeded LDBC-shaped graphs, each evaluated by
//
//   - the optimized engine with the cost-based planner ON,
//   - the same engine with the planner disabled (heuristic rules only),
//   - the reference evaluator in internal/core (core.EvalExpr).
//
// All evaluation routes must return identical path sets. Plans whose projections truncate are compared engine-vs-
// engine only: there the result depends on rank tie-breaking order, the
// engine pins that order (identically for planner on/off — that is the
// planner's core guarantee), but the reference closure discovers paths in
// a different order and may legitimately pick different representatives.
//
// Selectors are also checked against the reference without
// representatives: every kept path is in the reference closure, and per
// pair the counts — and, under τA/τG, the lengths — equal the reference
// answer's. That covers every sub-pipeline of a truncating plan whose
// π/τ/γ part opt.Derive pushes a quota from (ANY k, SHORTEST k, SHORTEST
// k GROUP) over a truncation-free input, and each truncation-free plan
// wrapped in ANY SHORTEST, ANY 2, SHORTEST 2 and SHORTEST 2 GROUP.
const (
	randomizedTrials = 500
	shortTrials      = 60
)

func TestRandomizedDifferential(t *testing.T) {
	trials := randomizedTrials
	if testing.Short() {
		trials = shortTrials
	}
	rng := rand.New(rand.NewSource(20260729))
	lim := core.Limits{MaxLen: 3}

	// A pool of seeded graphs reused across plans keeps generation cheap
	// while still varying size and cycle structure.
	graphs := make([]*graph.Graph, 8)
	for i := range graphs {
		graphs[i] = testutil.RandomGraph(rng)
	}

	semSeen := make(map[core.Semantics]int)
	truncating, setDetermined, representativeFree := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		g := graphs[trial%len(graphs)]
		plan := testutil.RandomPlan(rng, 3)
		name := fmt.Sprintf("trial%d/%s", trial, plan)
		countSemantics(plan, semSeen)

		compareReference := testutil.IsTruncationFree(plan)
		if compareReference {
			setDetermined++
		} else {
			truncating++
		}
		var want *pathset.Set
		if compareReference {
			ref, err := core.EvalExpr(g, plan, lim)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			want = ref
		}

		a, err := New(g, Options{Limits: lim}).Run(plan)
		if err != nil {
			t.Fatalf("%s: planner-on: %v", name, err)
		}
		b, err := New(g, Options{Limits: lim, DisablePlanner: true}).Run(plan)
		if err != nil {
			t.Fatalf("%s: planner-off: %v", name, err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: planner-on (%d paths) != planner-off (%d paths)", name, a.Len(), b.Len())
		}
		if want != nil && !a.Equal(want) {
			t.Fatalf("%s: engine (%d paths) != reference (%d paths)", name, a.Len(), want.Len())
		}
		// The representative-free oracle: selector pipelines over a
		// truncation-free input, checked against the reference closure.
		checked := false
		checkSelector := func(p core.Project, closure *pathset.Set) {
			for _, off := range []bool{false, true} {
				got, err := New(g, Options{Limits: lim, DisablePlanner: off}).Run(p)
				if err == nil {
					err = checkSelectorReference(g, p, got, closure)
				}
				if err != nil {
					t.Fatalf("%s: selector %s (planner off: %v): %v", name, p, off, err)
				}
			}
			checked = true
		}
		if compareReference {
			for _, p := range selectorsOver(plan) {
				checkSelector(p, want)
			}
		} else {
			visitPlan(plan, func(e core.PathExpr) {
				p, ok := e.(core.Project)
				if !ok || !selectorPipeline(p) {
					return
				}
				gb, _ := core.BottomGroupBy(p.In)
				closure, err := core.EvalExpr(g, gb.In, lim)
				if err != nil {
					t.Fatalf("%s: reference closure of %s: %v", name, gb.In, err)
				}
				checkSelector(p, closure)
			})
		}
		if checked {
			representativeFree++
		}
	}
	for _, sem := range core.AllSemantics() {
		if semSeen[sem] == 0 {
			t.Errorf("generator never produced semantics %s in %d trials", sem, trials)
		}
	}
	if truncating == 0 || setDetermined == 0 {
		t.Errorf("generator coverage hole: %d truncating, %d truncation-free plans",
			truncating, setDetermined)
	}
	t.Logf("%d trials: %d truncation-free (3-way vs reference), %d truncating (engine-vs-engine); %d checked by the representative-free selector oracle; semantics %v",
		trials, setDetermined, truncating, representativeFree, semSeen)
}

// selectorsOver wraps a truncation-free plan x in the selectors whose
// answer depends on discovery order: ANY SHORTEST, ANY 2, SHORTEST 2, and
// SHORTEST 2 GROUP, which does not but rides along.
func selectorsOver(x core.PathExpr) []core.Project {
	all, one, two := core.AllCount(), core.NCount(1), core.NCount(2)
	st := core.GroupBy{Key: core.GroupST, In: x}
	byLen := core.OrderBy{Key: core.OrderPath, In: st}
	return []core.Project{
		{Parts: all, Groups: all, Paths: one, In: byLen},
		{Parts: all, Groups: all, Paths: two, In: st},
		{Parts: all, Groups: all, Paths: two, In: byLen},
		{Parts: all, Groups: two, Paths: all, In: core.OrderBy{Key: core.OrderGroup, In: core.GroupBy{Key: core.GroupSTL, In: x}}},
	}
}

// selectorPipeline reports whether p's π/τ/γ pipeline is one opt.Derive
// pushes a quota from — ANY k, SHORTEST k or SHORTEST k GROUP — over a
// truncation-free path input. Derive is asked about p with that input
// replaced by a pattern recursion: the random inputs are seldom ones it
// pushes a quota into, but the oracle needs only that every evaluator
// reads the same set from them.
func selectorPipeline(p core.Project) bool {
	gb, ok := core.BottomGroupBy(p.In)
	if !ok || !testutil.IsTruncationFree(gb.In) {
		return false
	}
	probe := p
	probe.In = withGroupInput(p.In, core.Recurse{Sem: core.Walk, In: core.Edges{}})
	return recursionQuota(probe).K > 0
}

// withGroupInput returns x with the input of its bottom γ replaced by in.
func withGroupInput(x core.SpaceExpr, in core.PathExpr) core.SpaceExpr {
	switch x := x.(type) {
	case core.GroupBy:
		x.In = in
		return x
	case core.OrderBy:
		x.In = withGroupInput(x.In, in)
		return x
	default:
		return x
	}
}

// checkSelectorReference checks the engine's answer got to the selector
// pipeline p with checkKeptPaths, against the reference operators' γ, τ
// and π over closure, the reference evaluation of p's path input. Lengths
// must match where a τ ranks the paths by length.
func checkSelectorReference(g *graph.Graph, p core.Project, got, closure *pathset.Set) error {
	ref, err := testutil.Unpushed(func(core.PathExpr) (*pathset.Set, error) { return closure, nil }, p)
	if err != nil {
		return err
	}
	_, ranked := p.In.(core.OrderBy)
	return checkKeptPaths(g, got, ref, closure, ranked)
}

// visitPlan calls visit on every path-sorted subplan of e, e first.
func visitPlan(e core.PathExpr, visit func(core.PathExpr)) {
	visit(e)
	switch x := e.(type) {
	case core.Select:
		visitPlan(x.In, visit)
	case core.Join:
		visitPlan(x.L, visit)
		visitPlan(x.R, visit)
	case core.Union:
		visitPlan(x.L, visit)
		visitPlan(x.R, visit)
	case core.Recurse:
		visitPlan(x.In, visit)
	case core.Restrict:
		visitPlan(x.In, visit)
	case core.Project:
		if gb, ok := core.BottomGroupBy(x.In); ok {
			visitPlan(gb.In, visit)
		}
	}
}

func countSemantics(e core.PathExpr, seen map[core.Semantics]int) {
	visitPlan(e, func(e core.PathExpr) {
		switch x := e.(type) {
		case core.Recurse:
			seen[x.Sem]++
		case core.Restrict:
			seen[x.Sem]++
		}
	})
}
