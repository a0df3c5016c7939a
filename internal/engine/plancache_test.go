package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
)

func TestPlanCacheHit(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)

	want, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.PlanCacheHits != 0 || s.PlanCacheMisses != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", s.PlanCacheHits, s.PlanCacheMisses)
	}
	got, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.PlanCacheHits != 1 || s.PlanCacheMisses != 1 {
		t.Fatalf("after second run: hits=%d misses=%d, want 1/1", s.PlanCacheHits, s.PlanCacheMisses)
	}
	if !got.Equal(want) {
		t.Fatalf("cached plan returned a different result: %d vs %d paths", got.Len(), want.Len())
	}
}

// TestPlanCacheNormalization: different spellings of the same logical
// plan share one cache slot because the key is the canonical rendering.
func TestPlanCacheNormalization(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	a := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)
	b := gql.MustCompile("MATCH  TRAIL   p = (?x)-[ :Knows+ ]->(?y)")
	if _, err := e.Run(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(b); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.PlanCacheHits != 1 {
		t.Errorf("whitespace-variant query should hit the cache: %+v", s)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 3}, PlanCacheSize: 2})
	plans := []core.PathExpr{
		gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`),
		gql.MustCompile(`MATCH ACYCLIC p = (?x)-[:Likes+]->(?y)`),
		gql.MustCompile(`MATCH SIMPLE p = (?x)-[:Has_creator+]->(?y)`),
	}
	for _, p := range plans {
		if _, err := e.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.plans.Len(); got != 2 {
		t.Fatalf("cache size = %d, want 2", got)
	}
	// The first plan was evicted; re-running it must miss.
	misses := e.Stats().PlanCacheMisses
	if _, err := e.Run(plans[0]); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PlanCacheMisses; got != misses+1 {
		t.Errorf("evicted plan should miss: misses %d → %d", misses, got)
	}
}

// TestPlanCacheHitReusesDerivation: a plan-cache hit re-derives nothing.
// Run, RunStream, Reach and Explain on a cached plan all evaluate the
// derivation — automata included — that the miss stored, and the engine
// builds no automaton outside a derivation.
func TestPlanCacheHitReusesDerivation(t *testing.T) {
	derivations := 0
	defer func(orig func(core.PathExpr) *opt.Derivation) { derive = orig }(derive)
	derive = func(x core.PathExpr) *opt.Derivation {
		derivations++
		return opt.Derive(x)
	}
	for _, q := range []string{
		`MATCH ANY 2 TRAIL p = (?x:Person)-[:Knows+]->(?y)`, // quota'd, seeded
		`MATCH WALK p = (?x)-[:Knows+]->(?y:Person)`,        // kernel-eligible
	} {
		e := New(ldbc.Figure1(), Options{Limits: core.Limits{MaxLen: 4}})
		plan := gql.MustCompile(q)
		if _, err := e.Run(plan); err != nil {
			t.Fatal(err)
		}
		key := plan.String()
		ent, ok := e.plans.get(0, planFingerprint(key), key)
		if !ok || derivations != 1 {
			t.Fatalf("%s: cached %v after %d derivations, want cached after 1", q, ok, derivations)
		}
		automata := nfasOf(ent.derived.Root)
		if len(automata) == 0 {
			t.Fatalf("%s: derivation holds no automaton", q)
		}

		if _, err := e.Run(plan); err != nil {
			t.Fatal(err)
		}
		s := e.RunStream(context.Background(), plan, StreamOptions{})
		if _, err := s.Result(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, err := e.Reach(plan, opt.ReachPairs); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Explain(plan); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.PlanCacheHits != 4 || derivations != 1 {
			t.Errorf("%s: %d plan-cache hits and %d derivations, want 4 and 1", q, st.PlanCacheHits, derivations)
		}
		if again, _ := e.plans.get(0, planFingerprint(key), key); again.derived != ent.derived ||
			!reflect.DeepEqual(nfasOf(again.derived.Root), automata) {
			t.Errorf("%s: the cached derivation or its automata were replaced", q)
		}
		derivations = 0
	}
}

// nfasOf lists the automata of a derived plan's searches, in evaluation
// order.
func nfasOf(n *opt.Node) []*automaton.NFA {
	var out []*automaton.NFA
	if n.Search != nil {
		out = append(out, n.Search.NFA)
	}
	for _, in := range n.In {
		out = append(out, nfasOf(in)...)
	}
	return out
}

// TestSeededSelectMatchesGeneric: σ with endpoint conditions over a
// pattern recursion evaluates seeded, and the result — including order —
// matches the generic evaluate-then-filter route.
func TestSeededSelectMatchesGeneric(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 12, Messages: 6, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.4, Seed: 5,
	})
	lim := core.Limits{MaxLen: 4}
	queries := []struct {
		q string
		// expectSeeded: the condition has first-node conjuncts, so the
		// unplanned forward evaluation can seed. A last-only condition
		// seeds only after the planner flips the search backward.
		expectSeeded bool
	}{
		{`MATCH TRAIL p = (?x:Person)-[:Knows+]->(?y)`, true},
		{`MATCH ACYCLIC p = (?x:Person)-[:Knows+]->(?y:Person)`, true},
		{`MATCH SIMPLE p = (?x)-[:Likes+]->(?y:Message)`, false},
		{`MATCH SHORTEST p = (?x:Person)-[(:Knows|:Likes)+]->(?y)`, true},
	}
	for _, tc := range queries {
		q := tc.q
		plan := gql.MustCompile(q)
		fast := New(g, Options{Limits: lim})
		a, err := fast.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s seeded: %v", q, err)
		}
		slow := New(g, Options{Limits: lim, DisableExpand: true, Join: NestedLoop})
		b, err := slow.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s generic: %v", q, err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: seeded %d vs generic %d paths", q, a.Len(), b.Len())
		}
		// Order identity holds against the same executor without seeding:
		// expand the recursion over every source, then filter — the route
		// the engine takes when the condition has no endpoint conjuncts.
		sel, ok := plan.(core.Select)
		if !ok {
			t.Fatalf("%s: compiled plan is not a selection", q)
		}
		unseeded := New(g, Options{Limits: lim})
		inner, err := unseeded.EvalPaths(sel.In)
		if err != nil {
			t.Fatalf("%s unseeded: %v", q, err)
		}
		want := core.EvalSelect(g, sel.Cond, inner)
		if a.Len() != want.Len() {
			t.Fatalf("%s: seeded %d vs filter-after %d paths", q, a.Len(), want.Len())
		}
		for i, p := range a.Paths() {
			if !p.Equal(want.At(i)) {
				t.Fatalf("%s: path %d differs between seeded and filter-after evaluation", q, i)
			}
		}
		if tc.expectSeeded && fast.Stats().SeededRecursions == 0 {
			t.Errorf("%s: expected a seeded recursion", q)
		}
	}
}

// TestEngineRunsBackwardPlan: the planner-chosen backward plan produces
// the same set as the planner-off engine on a fan-in workload.
func TestEngineRunsBackwardPlan(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 40; i++ {
		b.AddNode(fmt.Sprintf("p%d", i), "Person", nil)
	}
	b.AddNode("m0", "Message", nil)
	b.AddNode("m1", "Message", nil)
	for i := 0; i < 40; i++ {
		b.AddEdge(fmt.Sprintf("e%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("m%d", i%2), "Likes", nil)
	}
	g := b.MustBuild()
	lim := core.Limits{MaxLen: 4}
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Likes+]->(?y:Message)`)

	on := New(g, Options{Limits: lim})
	got, err := on.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats().BackwardRecursions == 0 {
		t.Errorf("planner should have picked backward evaluation (stats %+v)", on.Stats())
	}
	off := New(g, Options{Limits: lim, DisablePlanner: true})
	want, err := off.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("backward plan: %d paths, planner-off %d", got.Len(), want.Len())
	}
}
