package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
)

func knowsSel() core.Select {
	return core.Select{Cond: cond.Label(cond.EdgeAt(1), ldbc.LabelKnows), In: core.Edges{}}
}

func TestAtoms(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	nodes, err := e.EvalPaths(core.Nodes{})
	if err != nil || nodes.Len() != 7 {
		t.Fatalf("Nodes = %d, %v; want 7", nodes.Len(), err)
	}
	edges, err := e.EvalPaths(core.Edges{})
	if err != nil || edges.Len() != 11 {
		t.Fatalf("Edges = %d, %v; want 11", edges.Len(), err)
	}
	if e.Graph() != g {
		t.Error("Graph() accessor")
	}
}

// TestEngineMatchesReference cross-checks every operator against the
// definitional evaluator core.EvalExpr (nested-loop ⋈, σ by scan, ϕ by
// closing a materialized base set) on compiled queries.
func TestEngineMatchesReference(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 10, Messages: 6, KnowsPerPerson: 2, LikesPerPerson: 1,
		CycleFraction: 0.5, Seed: 3,
	})
	lim := core.Limits{MaxLen: 4}
	queries := []string{
		`MATCH WALK p = (?x)-[:Knows]->(?y)`,
		`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ACYCLIC p = (?x)-[(:Likes/:Has_creator)+]->(?y)`,
		`MATCH SIMPLE p = (?x)-[:Knows+|:Likes]->(?y)`,
		`MATCH SHORTEST p = (?x)-[:Knows+]->(?y)`,
		`MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ALL SHORTEST ACYCLIC p = (?x)-[:Knows+]->(?y)`,
		`MATCH SHORTEST 2 TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ALL PARTITIONS 2 GROUPS 1 PATHS TRAIL p = (?x)-[:Knows*]->(?y) GROUP BY SOURCE LENGTH ORDER BY PARTITION GROUP PATH`,
		`MATCH WALK p = (?x)-[:Knows/:Knows]->(?y) WHERE first.name != "Moe_1"`,
	}
	for _, qs := range queries {
		plan := gql.MustCompile(qs)
		want, err := core.EvalExpr(g, plan, lim)
		if err != nil {
			t.Fatalf("%s reference: %v", qs, err)
		}
		got, err := New(g, Options{Limits: lim}).EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s engine: %v", qs, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: engine %d paths, reference %d", qs, got.Len(), want.Len())
		}
	}
}

// TestJoinStrategiesAgree: the hash join returns the nested-loop join of
// Definition 3.1 and probes only the pairs that concatenate.
func TestJoinStrategiesAgree(t *testing.T) {
	g := ldbc.Figure1()
	plan := core.Join{L: knowsSel(), R: knowsSel()}
	hash := New(g, Options{})
	a, err := hash.EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.EvalExpr(g, plan, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("hash and nested-loop joins disagree")
	}
	knows := int64(len(g.EdgesWithLabel(ldbc.LabelKnows)))
	if probes := hash.Stats().JoinProbes; probes != int64(b.Len()) || probes >= knows*knows {
		t.Errorf("hash join probed %d pairs, want the %d that concatenate of %d", probes, b.Len(), knows*knows)
	}
}

func TestIndexedSelect(t *testing.T) {
	g := ldbc.Figure1()
	indexed := New(g, Options{})

	plans := []core.PathExpr{
		knowsSel(),
		core.Select{Cond: cond.Label(cond.First(), "Person"), In: core.Nodes{}},
		core.Select{Cond: cond.Label(cond.Last(), "Message"), In: core.Nodes{}},
		core.Select{Cond: cond.Label(cond.NodeAt(1), "Person"), In: core.Nodes{}},
	}
	for _, plan := range plans {
		a, err := indexed.EvalPaths(plan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.EvalExpr(g, plan, core.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("indexed and scan selection disagree for %s", plan)
		}
	}
	if indexed.Stats().IndexedScans != int64(len(plans)) {
		t.Errorf("IndexedScans = %d, want %d", indexed.Stats().IndexedScans, len(plans))
	}
}

func TestIndexedSelectNotUsedForComplexConds(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	plans := []core.PathExpr{
		// NE comparisons and non-atom inputs must scan.
		core.Select{Cond: cond.LabelCmp{Target: cond.EdgeAt(1), Op: cond.NE, Value: "Knows"}, In: core.Edges{}},
		core.Select{Cond: cond.Label(cond.EdgeAt(2), "Knows"), In: core.Edges{}},
		core.Select{Cond: cond.Label(cond.EdgeAt(1), "Knows"), In: core.Union{L: core.Edges{}, R: core.Edges{}}},
		core.Select{Cond: cond.Len(0), In: core.Nodes{}},
	}
	for _, plan := range plans {
		if _, err := e.EvalPaths(plan); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().IndexedScans != 0 {
		t.Errorf("complex selections must not use the index; IndexedScans = %d",
			e.Stats().IndexedScans)
	}
}

func TestBudgetPropagates(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{Limits: core.Limits{MaxPaths: 10}})
	_, err := e.EvalPaths(core.Recurse{Sem: core.Walk, In: knowsSel()})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestNilAndUnknownExpr(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	if _, err := e.EvalPaths(nil); err == nil {
		t.Error("nil path expr must error")
	}
	all := core.AllCount()
	if _, err := e.EvalPaths(core.Project{Parts: all, Groups: all, Paths: all}); err == nil {
		t.Error("nil space expr must error")
	}
}

// TestStatsReset: counters accumulate per engine, and a fresh engine
// starts from zero.
func TestStatsReset(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	if _, err := e.EvalPaths(core.Edges{}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().PathsProduced == 0 {
		t.Error("stats not accumulated")
	}
	if New(g, Options{}).Stats() != (Stats{}) {
		t.Error("a fresh engine's counters are not zero")
	}
}

// TestEvalSpaceDirect reads the solution space the selector node builds
// off its π: τ and γ are evaluated inside it, not on their own.
func TestEvalSpaceDirect(t *testing.T) {
	g := ldbc.Figure1()
	e := New(g, Options{})
	all := core.AllCount()
	x := core.Project{Parts: all, Groups: all, Paths: all, In: core.OrderBy{Key: core.OrderPath,
		In: core.GroupBy{Key: core.GroupST, In: knowsSel()}}}
	sel, src, err := pipelineOf(x, opt.Derive(x).Root)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.eval(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, parts, groups := sel.project(in); parts != 4 || groups != 4 {
		t.Errorf("partitions, groups = %d, %d, want 4, 4 (one per Knows edge pair)", parts, groups)
	}
}

// Property: for random label pairs, engine join equals reference join.
func TestJoinMatchesReferenceProperty(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 8, Messages: 5, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.25, Seed: 9,
	})
	labels := []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator}
	f := func(i, j uint8) bool {
		l := core.Select{Cond: cond.Label(cond.EdgeAt(1), labels[int(i)%3]), In: core.Edges{}}
		r := core.Select{Cond: cond.Label(cond.EdgeAt(1), labels[int(j)%3]), In: core.Edges{}}
		eng := New(g, Options{})
		got, err := eng.EvalPaths(core.Join{L: l, R: r})
		if err != nil {
			return false
		}
		lref, _ := eng.EvalPaths(l)
		rref, _ := eng.EvalPaths(r)
		return got.Equal(core.EvalJoin(lref, rref))
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(5)), MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGraphImmutabilityAcrossEngines: two engines over the same graph see
// identical data (graphs are shared, engines are not).
func TestGraphImmutabilityAcrossEngines(t *testing.T) {
	g := ldbc.Figure1()
	plan := rpq.Compile(rpq.MustParse(":Knows+"), core.Trail)
	a, err := New(g, Options{}).EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, Options{}).EvalPaths(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("evaluations over a shared graph disagree")
	}
}

func TestLabelIndexConsistency(t *testing.T) {
	// The indexed shortcut must match a full scan on a larger graph too.
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 40, Messages: 60, KnowsPerPerson: 3, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 21,
	})
	for _, label := range []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator, "Nope"} {
		plan := core.Select{Cond: cond.Label(cond.EdgeAt(1), label), In: core.Edges{}}
		a, err := New(g, Options{}).EvalPaths(plan)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.EvalExpr(g, plan, core.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("label %q: index and scan disagree (%d vs %d)", label, a.Len(), b.Len())
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	e := New(ldbc.Figure1(), Options{})
	// Default limits protect against divergence.
	_, err := e.EvalPaths(core.Recurse{Sem: core.Walk, In: knowsSel()})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("default limits should trip on a cyclic walk, got %v", err)
	}
}

// TestFingerprintCollisionStat checks the observability hook for the
// fingerprint fallback: a normal evaluation should see no collisions, and
// a fresh engine must rebase the counter rather than inherit the
// process-wide total.
func TestFingerprintCollisionStat(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 20, KnowsPerPerson: 3, CycleFraction: 0.3, Seed: 4,
	})
	e := New(g, Options{Limits: core.Limits{MaxLen: 5}})
	if _, err := e.EvalPaths(rpq.Compile(rpq.MustParse(":Knows+"), core.Trail)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().FingerprintCollisions; got != 0 {
		t.Errorf("FingerprintCollisions = %d on an honest evaluation, want 0", got)
	}
	// Force collisions through the shared pathset counter and check the
	// engine observes exactly the delta since its construction.
	s := pathset.New(0)
	figure := ldbc.Figure1()
	s.Add(path.ForceFingerprint(path.MustFromKeys(figure, "n1", "e1", "n2"), 7))
	s.Add(path.ForceFingerprint(path.MustFromKeys(figure, "n2", "e2", "n3"), 7))
	if got := e.Stats().FingerprintCollisions; got != 1 {
		t.Errorf("FingerprintCollisions = %d after one injected collision, want 1", got)
	}
	if got := New(g, Options{}).Stats().FingerprintCollisions; got != 0 {
		t.Errorf("FingerprintCollisions = %d on a fresh engine, want 0", got)
	}
}
