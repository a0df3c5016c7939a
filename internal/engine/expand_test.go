package engine

import (
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/rpq"
)

// TestExpandMatchesGeneric: the graph-expansion fast path and the generic
// closure evaluation (core.EvalExpr) return identical results for every
// recognizable base shape and semantics.
func TestExpandMatchesGeneric(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 14, Messages: 10, KnowsPerPerson: 2, LikesPerPerson: 1,
		CycleFraction: 0.5, Seed: 31,
	})
	patterns := []string{
		":Knows+",
		"(:Likes/:Has_creator)+",
		"(:Knows|:Likes)+",
		"-+",
		"((:Knows/:Knows)|:Likes)+",
	}
	lim := core.Limits{MaxLen: 5}
	for _, pat := range patterns {
		for _, sem := range core.AllSemantics() {
			p := rpq.Compile(rpq.MustParse(pat), sem)
			fast := New(g, Options{Limits: lim})
			a, err := fast.EvalPaths(p)
			if err != nil {
				t.Fatalf("%s/%s fast: %v", pat, sem, err)
			}
			if fast.Stats().ExpandedRecursions == 0 {
				t.Errorf("%s/%s: fast path not taken", pat, sem)
			}
			b, err := core.EvalExpr(g, p, lim)
			if err != nil {
				t.Fatalf("%s/%s generic: %v", pat, sem, err)
			}
			if !a.Equal(b) {
				t.Errorf("%s/%s: fast %d paths, generic %d paths", pat, sem, a.Len(), b.Len())
			}
		}
	}
}

// TestExpandNotTakenForComplexBases: recursions over bases the expansion
// cannot express as a label pattern fall back to closing the materialized
// base, and return what core.EvalExpr returns.
func TestExpandNotTakenForComplexBases(t *testing.T) {
	g := ldbc.Figure1()
	lim := core.Limits{MaxLen: 3}
	bases := []core.PathExpr{
		// Property selection, not a label pattern.
		core.Select{Cond: cond.Prop(cond.First(), "name", graph.StringValue("Moe")), In: core.Edges{}},
		// Label on the wrong position.
		core.Select{Cond: cond.Label(cond.EdgeAt(2), "Knows"), In: core.Edges{}},
		// NE comparison.
		core.Select{Cond: cond.LabelCmp{Target: cond.EdgeAt(1), Op: cond.NE, Value: "Knows"}, In: core.Edges{}},
		// Nodes atom inside a union.
		core.Union{L: knowsSel(), R: core.Nodes{}},
	}
	for _, base := range bases {
		plan := core.Recurse{Sem: core.Acyclic, In: base}
		e := New(g, Options{Limits: lim})
		got, err := e.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if e.Stats().ExpandedRecursions != 0 {
			t.Errorf("expansion wrongly taken for base %s", base)
		}
		want, err := core.EvalExpr(g, plan, lim)
		if err != nil {
			t.Fatalf("%s reference: %v", base, err)
		}
		if !got.Equal(want) {
			t.Errorf("base %s: engine %d paths, reference %d", base, got.Len(), want.Len())
		}
	}
}

// TestRestrictOperator: the engine evaluates ρ and it composes with joins
// as §2.3 requires.
func TestRestrictOperator(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxLen: 4}})

	// Concatenate Knows+ trails with Knows+ trails, then require the
	// whole concatenation to be a trail.
	sub := core.Recurse{Sem: core.Trail, In: knowsSel()}
	composed := core.Restrict{Sem: core.Trail, In: core.Join{L: sub, R: sub}}
	res, err := e.EvalPaths(composed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("composition returned nothing")
	}
	for _, p := range res.Paths() {
		if !p.IsTrail() {
			t.Errorf("ρTrail let through non-trail %s", p.Format(g))
		}
	}
	// Without the outer ρ some concatenations repeat edges.
	raw, err := e.EvalPaths(core.Join{L: sub, R: sub})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Len() <= res.Len() {
		t.Errorf("outer restrictor filtered nothing: %d vs %d", raw.Len(), res.Len())
	}
}

// TestDescendingProjectionViaEngine: DESC counts flow through plan
// evaluation.
func TestDescendingProjectionViaEngine(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	plan := core.Project{
		Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1).Descending(),
		In: core.OrderBy{Key: core.OrderPath,
			In: core.GroupBy{Key: core.GroupST,
				In: core.Recurse{Sem: core.Trail, In: knowsSel()}}},
	}
	res, err := e.EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	// The (n1, n2) partition's longest trail has length 3.
	found := false
	for _, p := range res.Paths() {
		if g.Node(p.First()).Key == "n1" && g.Node(p.Last()).Key == "n2" {
			found = true
			if p.Len() != 3 {
				t.Errorf("longest n1→n2 trail has length %d, want 3", p.Len())
			}
		}
	}
	if !found {
		t.Error("no n1→n2 path in descending projection")
	}
}
