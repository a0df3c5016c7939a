package engine

import (
	"context"
	"fmt"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// TestExplainObservesRun: Explain is one run of the cached plan. Its
// result is Run's byte for byte, and every engine counter — paths
// produced, recursions, scans, probes — grows exactly as much as Run's,
// so the plan is evaluated once and no subtree on its own. The root line
// reports the result size; an operator the run answers inside a product
// search or a label-index scan reports no actual count.
func TestExplainObservesRun(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 40, Messages: 80, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 5})
	lim := core.Limits{MaxLen: 4}
	for _, q := range []string{
		`MATCH ANY SHORTEST TRAIL p = (?x:Person {id:3})-[:Knows+]->(?y)`,
		`MATCH ALL ACYCLIC p = (?x:Person {id:3})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y)`,
		`MATCH SHORTEST 2 GROUP WALK p = (?x)-[:Knows+]->(?y)`,
		`MATCH TRAIL p = (?x)-[:Likes+]->(?y:Message)`,
		`MATCH WALK p = (?x)-[:Knows/:Knows]->(?y)`,
	} {
		plan, err := compileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		runner, explainer := New(g, Options{Limits: lim}), New(g, Options{Limits: lim})
		want, err := runner.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := explainer.Explain(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if ex.Result.Format(g) != want.Format(g) {
			t.Errorf("%s: Explain.Result differs from Run", q)
		}
		if got, want := explainer.Stats(), runner.Stats(); got != want {
			t.Errorf("%s: Explain counters %+v, Run counters %+v", q, got, want)
		}
		if root := ex.Lines[0]; root.Actual != want.Len() {
			t.Errorf("%s: root line actual %d, want %d", q, root.Actual, want.Len())
		}
		unevaluated := 0
		for _, l := range ex.Lines {
			if l.Actual < 0 {
				unevaluated++
			}
		}
		if unevaluated == 0 {
			t.Errorf("%s: every line reports an actual count; the atoms under a search are never evaluated:\n%s", q, ex.Format())
		}
	}
}

// TestExplainSeededBudget: Explain of σ[first.id = N](ϕTrail) under a
// MaxPaths the seeded answer fits in and the all-pairs recursion does
// not. Run answers it with one seeded search, so Explain must too.
func TestExplainSeededBudget(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 60, Messages: 120, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
	rec := core.Recurse{Sem: core.Trail, In: knowsSel()}
	seeded := core.Select{Cond: cond.PropCmp{Target: cond.First(), Prop: "id", Op: cond.EQ, Value: graph.IntValue(7)}, In: rec}
	loose := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	all, err := loose.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := loose.Run(seeded)
	if err != nil {
		t.Fatal(err)
	}
	lim := core.Limits{MaxLen: 4, MaxPaths: (answer.Len() + all.Len()) / 2}
	if answer.Len() == 0 || lim.MaxPaths <= answer.Len() || lim.MaxPaths >= all.Len() {
		t.Fatalf("fixture: seeded %d, all-pairs %d paths; need a budget strictly between", answer.Len(), all.Len())
	}
	e := New(g, Options{Limits: lim})
	want, err := e.Run(seeded)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain(context.Background(), seeded)
	if err != nil {
		t.Fatalf("Explain under MaxPaths %d (seeded answer %d, all pairs %d): %v", lim.MaxPaths, answer.Len(), all.Len(), err)
	}
	if ex.Result.Format(g) != want.Format(g) {
		t.Error("Explain.Result differs from Run")
	}
}

// TestExplainSeededTemplates: seeded queries from one person on a
// 7000-person graph at MaxLen 6 explain without error, and each
// explanation's result is Run's.
func TestExplainSeededTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("7000-person graph")
	}
	g := ldbc.MustGenerate(ldbc.Config{Persons: 7000, Messages: 14000, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
	e := New(g, Options{Limits: core.Limits{MaxLen: 6}})
	for _, r := range []string{"WALK", "TRAIL", "ACYCLIC"} {
		q := fmt.Sprintf(`MATCH ANY SHORTEST %s p = (?x:Person {id:42})-[:Knows+]->(?y)`, r)
		plan, err := compileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := e.Explain(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if ex.Result.Format(g) != want.Format(g) {
			t.Errorf("%s: Explain.Result differs from Run", q)
		}
	}
}
