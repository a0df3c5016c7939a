package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/testutil"
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
	e := New(g, Options{Limits: core.Limits{MaxLen: 3}})
	e.plans = newPlanCache(2)
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
		key, lim := plan.String(), e.opts.Limits
		ent, ok := e.plans.get(e.cm.Stats, lim, planFingerprint(key), key)
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
		if _, err := e.Explain(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.PlanCacheHits != 4 || derivations != 1 {
			t.Errorf("%s: %d plan-cache hits and %d derivations, want 4 and 1", q, st.PlanCacheHits, derivations)
		}
		if again, _ := e.plans.get(e.cm.Stats, lim, planFingerprint(key), key); again.derived != ent.derived ||
			!reflect.DeepEqual(nfasOf(again.derived.Root), automata) {
			t.Errorf("%s: the cached derivation or its automata were replaced", q)
		}
		derivations = 0
	}
}

// TestWithLimits: one engine evaluates each call under the limits of its
// WithLimits view, exactly as an engine built with those limits does; the
// views share the engine's plan cache and counters, and the cache holds a
// plan once per (limits, plan).
func TestWithLimits(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 12, Messages: 6, KnowsPerPerson: 2, LikesPerPerson: 2, CycleFraction: 0.4, Seed: 8})
	base := core.Limits{MaxLen: 4}
	e := New(g, Options{Limits: base})
	if e.WithLimits(base) != e {
		t.Error("WithLimits of the engine's own limits must return the engine")
	}
	plan := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y:Person)`)
	for round := 0; round < 2; round++ {
		for _, maxLen := range []int{4, 1, 2} {
			lim := core.Limits{MaxLen: maxLen}
			v := e.WithLimits(lim)
			got, err := v.Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(g, Options{Limits: lim}).Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.SameSequence(got, want) {
				t.Fatalf("max_len %d: view returned %d paths, fresh engine %d", maxLen, got.Len(), want.Len())
			}
			for _, p := range got.Paths() {
				if p.Len() > maxLen {
					t.Fatalf("max_len %d: path of length %d", maxLen, p.Len())
				}
			}
			res, err := v.Reach(plan, opt.ReachCountPaths)
			if err != nil || res.Count != want.Len() {
				t.Fatalf("max_len %d: Reach counted %d paths (%v), want %d", maxLen, res.Count, err, want.Len())
			}
		}
	}
	// Run and Reach share the plan: 3 misses, then 9 hits.
	if st := e.Stats(); st.PlanCacheMisses != 3 || st.PlanCacheHits != 9 {
		t.Errorf("plan cache: %d misses, %d hits; want 3 and 9", st.PlanCacheMisses, st.PlanCacheHits)
	}
	if n := e.plans.Len(); n != 3 {
		t.Errorf("plan cache holds %d plans, want one per limits (3)", n)
	}
}

// TestExplainCacheHitUnderLoad: Explain and the "plan" trace span report
// whether their own plan came out of the cache while eight goroutines
// plan and evaluate other queries on the same engine — a miss when cold,
// a hit when warm.
func TestExplainCacheHitUnderLoad(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 12, Messages: 6, KnowsPerPerson: 2, LikesPerPerson: 2, CycleFraction: 0.4, Seed: 9})
	e := New(g, Options{Limits: core.Limits{MaxLen: 3}})
	others := []core.PathExpr{
		gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`),
		gql.MustCompile(`MATCH ANY 2 WALK p = (?x:Person)-[:Knows+]->(?y)`),
	}
	for _, p := range others {
		e.Plan(p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ctx.Err() == nil; i++ {
				if _, err := e.Run(others[i%len(others)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for e.Stats().PlanCacheHits == 0 {
		runtime.Gosched()
	}
	// The "plan" span of a traced run reports the same.
	planSpanHit := func(plan core.PathExpr) int64 {
		tr := obs.NewTrace()
		root := tr.Start("query")
		if _, err := e.RunCtx(obs.WithSpan(context.Background(), root), plan); err != nil {
			t.Fatal(err)
		}
		root.End()
		return findSpan(tr.Tree(), "plan").Attrs["cache_hit"]
	}
	traced := gql.MustCompile(`MATCH TRAIL p = (?x)-[:Likes/:Has_creator]->(?y)`)
	if cold, warm := planSpanHit(traced), planSpanHit(traced); cold != 0 || warm != 1 {
		t.Errorf("plan span cache_hit = %d cold, %d warm; want 0 and 1", cold, warm)
	}
	for _, q := range []string{
		`MATCH SIMPLE p = (?x)-[:Likes+]->(?y)`,
		`MATCH ACYCLIC p = (?x)-[(:Knows|:Likes)+]->(?y:Message)`,
		`MATCH SHORTEST 2 TRAIL p = (?x)-[:Knows+]->(?y)`,
	} {
		plan := gql.MustCompile(q)
		for i, want := range []bool{false, true} {
			ex, err := e.Explain(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if ex.CacheHit != want {
				t.Errorf("%s: Explain #%d reports cache hit %v, want %v", q, i+1, ex.CacheHit, want)
			}
		}
	}
	cancel()
	wg.Wait()
}

// TestEvaluationFootprint: a stream and a reach answer carry the label
// footprint of the plan they evaluated, the one PlanFootprint derives.
func TestEvaluationFootprint(t *testing.T) {
	e := New(ldbc.Figure1(), Options{Limits: core.Limits{MaxLen: 3}})
	for _, q := range []string{
		`MATCH TRAIL p = (?x:Person)-[:Knows+]->(?y)`,
		`MATCH WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y:Person)`,
	} {
		logical := gql.MustCompile(q)
		physical, _ := e.Plan(logical)
		want := PlanFootprint(physical)
		s := e.RunStream(context.Background(), logical, StreamOptions{})
		if _, err := s.Result(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		res, err := e.Reach(logical, opt.ReachPairs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Footprint(), want) || !reflect.DeepEqual(res.Footprint, want) {
			t.Errorf("%s: stream footprint %+v, reach footprint %+v, want %+v", q, s.Footprint(), res.Footprint, want)
		}
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
		b, err := core.EvalExpr(g, plan, lim)
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
