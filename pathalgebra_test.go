package pathalgebra

import (
	"errors"
	"strings"
	"testing"
)

// TestIntroQuery runs the paper's introductory query end to end: all
// simple paths from Moe to Apu across the inner Knows cycle or the outer
// Likes/Has_creator cycle. The paper states the answer is exactly
// path1 = (n1,e1,n2,e4,n4) and path2 = (n1,e8,n6,e11,n3,e7,n7,e10,n4).
func TestIntroQuery(t *testing.T) {
	g := Figure1()
	res, err := Run(g,
		`MATCH SIMPLE p = (?x {name:"Moe"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:"Apu"})`,
		RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := res.Format(g)
	want := "(n1, e1, n2, e4, n4)\n(n1, e8, n6, e11, n3, e7, n7, e10, n4)"
	if got != want {
		t.Errorf("intro query result:\n%s\nwant:\n%s", got, want)
	}
}

// TestSection5Query runs the §5 worked query through the facade:
// MATCH ANY SHORTEST TRAIL p = (x)-[:Knows]->+(y).
func TestSection5Query(t *testing.T) {
	g := Figure1()
	res, err := Run(g, `MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One shortest trail per connected endpoint pair; Figure 1's Knows
	// subgraph has 9 such pairs.
	if res.Len() != 9 {
		t.Errorf("ANY SHORTEST TRAIL returned %d paths, want 9:\n%s", res.Len(), res.Format(g))
	}
	for _, p := range res.Paths() {
		if !p.IsTrail() {
			t.Errorf("non-trail in TRAIL result: %s", p.Format(g))
		}
	}
}

// TestRunOptimizesWalk: Run applies the §7.3 rewrite, so ANY SHORTEST
// WALK terminates on the cyclic Figure 1 graph even without limits.
func TestRunOptimizesWalk(t *testing.T) {
	g := Figure1()
	res, err := Run(g, `MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`, RunOptions{})
	if err != nil {
		t.Fatalf("Run with optimization: %v", err)
	}
	if res.Len() != 9 {
		t.Errorf("result = %d paths, want 9", res.Len())
	}
	// Without the rewrite the recursion stays ϕWalk, infinite on this
	// graph; the engine still terminates, because it pushes the selector's
	// one-path-per-pair quota into the walk search.
	raw, err := Run(g, `MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`,
		RunOptions{NoOptimize: true, Limits: Limits{MaxPaths: 1000}})
	if err != nil {
		t.Fatalf("unoptimized cyclic walk under a selector: %v", err)
	}
	if raw.Len() != 9 {
		t.Errorf("unoptimized result = %d paths, want 9", raw.Len())
	}
	// A bare walk has no selector to bound it and must exceed its budget.
	_, err = Run(g, `MATCH WALK p = (?x)-[:Knows+]->(?y)`,
		RunOptions{NoOptimize: true, Limits: Limits{MaxPaths: 1000}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("bare cyclic walk: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestRunParseError(t *testing.T) {
	g := Figure1()
	if _, err := Run(g, `MATCH NOT A QUERY`, RunOptions{}); err == nil {
		t.Error("Run should surface parse errors")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRun should panic on error")
		}
	}()
	MustRun(g, `garbage`, RunOptions{})
}

func TestBuildGraphViaFacade(t *testing.T) {
	b := NewGraphBuilder()
	b.AddNode("a", "City", nil)
	b.AddNode("c", "City", nil)
	b.AddEdge("r", "a", "c", "Road", nil)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, `MATCH WALK p = (?x)-[:Road]->(?y)`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("result = %d paths, want 1", res.Len())
	}
}

func TestReadGraphJSONFacade(t *testing.T) {
	src := `{"nodes":[{"key":"a"},{"key":"b"}],
		"edges":[{"key":"e","src":"a","dst":"b","label":"L"}]}`
	g, err := ReadGraphJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Error("JSON graph shape")
	}
}

func TestGenerateSNBFacade(t *testing.T) {
	g, err := GenerateSNB(SNBConfig{Persons: 5, Messages: 3, KnowsPerPerson: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 {
		t.Errorf("nodes = %d, want 8", g.NumNodes())
	}
}

func TestPlanPipelineFacade(t *testing.T) {
	q, err := ParseQuery(`MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	opt, rules := Optimize(plan)
	if len(rules) == 0 {
		t.Error("expected the walk-to-shortest rule to fire")
	}
	text := PrintPlan(opt)
	if !strings.Contains(text, "Restrictor (SHORTEST)") {
		t.Errorf("printed plan missing rewritten restrictor:\n%s", text)
	}
	eng := NewEngine(Figure1(), EngineOptions{})
	res, err := eng.EvalPaths(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 9 {
		t.Errorf("engine result = %d, want 9", res.Len())
	}
	if eng.Stats().Recursions != 1 {
		t.Errorf("Recursions = %d, want 1", eng.Stats().Recursions)
	}
}

func TestRPQFacade(t *testing.T) {
	re, err := ParseRPQ("(:Likes/:Has_creator)+")
	if err != nil {
		t.Fatal(err)
	}
	plan := CompileRPQ(re, TrailSemantics)
	res, err := NewEngine(Figure1(), EngineOptions{}).EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Error("no Likes/Has_creator trails found")
	}
}

func TestCondFacade(t *testing.T) {
	c, err := ParseCond(`first.name = "Moe"`)
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != `first.name = "Moe"` {
		t.Errorf("cond = %s", c)
	}
}

func TestCompileSelectorFacade(t *testing.T) {
	re, _ := ParseRPQ(":Knows+")
	pattern := CompileRPQ(re, TrailSemantics)
	plan, err := CompileSelector(Selector{Kind: selAllShortestKind(t)}, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "γSTL") {
		t.Errorf("ALL SHORTEST compilation = %s", plan)
	}
}

// selAllShortestKind pulls the ALL SHORTEST kind out of a parsed query so
// the facade test does not need to import internal/gql.
func selAllShortestKind(t *testing.T) (k SelectorKind) {
	t.Helper()
	q, err := ParseQuery(`MATCH ALL SHORTEST WALK p = (?x)-[:K]->(?y)`)
	if err != nil {
		t.Fatal(err)
	}
	return q.Selector.Kind
}
