package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/testutil"
)

// The selector-quota pushdown differential. A Table 7 pipeline evaluated
// by the engine — which pushes the pipeline's per-pair quota into the
// product search — must return the same paths in the same order as the
// same plan evaluated without the pushdown (testutil.Unpushed: the path
// input evaluated on its own, then γ, τ, π by the reference operators).
// That is the byte-identity claim, and it is checked for every selector ×
// restrictor × pattern × endpoint form × direction over
// sealed, overlay and compacted views of random graphs.
//
// Against the definitional evaluator (core.EvalExpr, which closes a
// materialized base set) only what the paper defines is comparable: it
// discovers paths in a different order, so for the selectors that keep
// "some k" paths of a pair it legitimately keeps different ones (see
// TestRandomizedDifferential).
// Set-determined selectors must match them exactly; for the others the
// per-pair counts must match, every kept path must be in the closure, and
// under τA the kept lengths must match.

// quotaSelector is one GQL selector of the differential.
type quotaSelector struct {
	text string
	// setDetermined: the surviving paths do not depend on discovery
	// order. byLength: the order-dependent survivors are the shortest.
	setDetermined, byLength bool
}

var (
	quotaSelectors = []quotaSelector{
		{"ALL", true, false},
		{"ANY SHORTEST", false, true},
		{"ALL SHORTEST", true, false},
		{"ANY", false, false},
		{"ANY 2", false, false},
		{"SHORTEST 2", false, true},
		{"SHORTEST 2 GROUP", true, false},
	}
	quotaRestrictors = []string{"WALK", "TRAIL", "ACYCLIC", "SIMPLE"}
	// One single-state pattern, one whose NFA alternates two states, one
	// whose two recursions compile to a ∪ the quota must cross.
	quotaPatterns = []string{":Knows+", "(:Knows/:Likes)+", "(:Knows+)|(:Likes/:Has_creator)+"}
	// %d is a person id.
	quotaEndpoints = []string{
		"(?x)-[%s]->(?y)",
		"(?x:Person {id:%d})-[%s]->(?y)",
		"(?x)-[%s]->(?y:Person {id:%d})",
	}
)

// flipBackward sets every pattern recursion of the plan to backward
// evaluation — what the planner's choose-backward does where it may.
func flipBackward(x core.PathExpr) core.PathExpr {
	switch x := x.(type) {
	case core.Select:
		x.In = flipBackward(x.In)
		return x
	case core.Union:
		x.L, x.R = flipBackward(x.L), flipBackward(x.R)
		return x
	case core.Recurse:
		x.Dir = core.Backward
		return x
	case core.Project:
		x.In = flipBackwardSpace(x.In)
		return x
	default:
		return x
	}
}

func flipBackwardSpace(x core.SpaceExpr) core.SpaceExpr {
	switch x := x.(type) {
	case core.GroupBy:
		x.In = flipBackward(x.In)
		return x
	case core.OrderBy:
		x.In = flipBackwardSpace(x.In)
		return x
	default:
		return x
	}
}

// quotaViews returns a sealed graph, the same graph under an overlay of
// random inserts and deletes, and that overlay compacted.
func quotaViews(t *testing.T, rng *rand.Rand, seed int64) map[string]*graph.Graph {
	base := ldbc.MustGenerate(ldbc.Config{
		Persons:        7 + rng.Intn(6),
		Messages:       4 + rng.Intn(5),
		KnowsPerPerson: 2 + rng.Intn(2),
		LikesPerPerson: 1 + rng.Intn(2),
		CycleFraction:  0.3 + 0.1*float64(rng.Intn(5)),
		Seed:           seed,
	})
	store := graph.NewStore(base, graph.StoreOptions{CompactThreshold: -1})
	t.Cleanup(store.Close)
	m, seq := seedMirror(base), 0
	for i := 0; i < 4; i++ {
		b := randBatch(rng, m, &seq, false)
		if len(b.Ops) == 0 {
			continue
		}
		if _, err := store.Apply(b); err != nil {
			t.Fatalf("apply: %v", err)
		}
		m.apply(b)
	}
	views := map[string]*graph.Graph{"sealed": base, "overlay": store.Graph()}
	if err := store.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	views["compacted"] = store.Graph()
	return views
}

// quotaTrials is the number of random graphs the differential draws.
func quotaTrials() int {
	if testing.Short() {
		return 1
	}
	return 2
}

// forEachQuotaQuery calls visit for every selector × restrictor × pattern
// × endpoint form of the differential, compiled, on each view of each
// trial's random graph.
func forEachQuotaQuery(t *testing.T, trials int, visit func(name string, g *graph.Graph, sel quotaSelector, logical core.PathExpr)) {
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		for view, g := range quotaViews(t, rng, int64(trial+1)) {
			quotaQueries(t, 1+rng.Intn(5), quotaRestrictors, func(query string, sel quotaSelector, logical core.PathExpr) {
				visit(fmt.Sprintf("trial%d/%s/%s", trial, view, query), g, sel, logical)
			})
		}
	}
}

// quotaQueries calls visit for every selector × restrictor of restrictors
// × pattern × endpoint form, compiled, with id as the seeded person.
func quotaQueries(t *testing.T, id int, restrictors []string, visit func(query string, sel quotaSelector, logical core.PathExpr)) {
	for _, sel := range quotaSelectors {
		for _, res := range restrictors {
			for _, pat := range quotaPatterns {
				for ei, ep := range quotaEndpoints {
					args := []any{pat}
					if ei == 1 {
						args = []any{id, pat}
					} else if ei == 2 {
						args = []any{pat, id}
					}
					query := "MATCH " + sel.text + " " + res + " p = " + fmt.Sprintf(ep, args...)
					logical, err := compileQuery(query)
					if err != nil {
						t.Fatalf("%s: %v", query, err)
					}
					visit(query, sel, logical)
				}
			}
		}
	}
}

func TestQuotaPushdownDifferential(t *testing.T) {
	lim := core.Limits{MaxLen: 4}
	checked, pushed, rewritten := 0, 0, 0
	forEachQuotaQuery(t, quotaTrials(), func(name string, g *graph.Graph, sel quotaSelector, logical core.PathExpr) {
		// The definitional answers, once per query.
		ref, err := core.EvalExpr(g, logical, lim)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		gb, _ := core.BottomGroupBy(logical.(core.Project).In)
		closure, err := core.EvalExpr(g, gb.In, lim)
		if err != nil {
			t.Fatalf("%s: reference closure: %v", name, err)
		}

		// As compiled (ANY/ALL SHORTEST WALK keep their ϕWalk), as
		// planned, and both run backward.
		planned, _ := New(g, Options{Limits: lim}).Plan(logical)
		plans := map[string]core.PathExpr{
			"compiled": logical, "planned": planned,
			"compiled←": flipBackward(logical), "planned←": flipBackward(planned),
		}
		results := make(map[string]*pathset.Set, len(plans))
		for form, plan := range plans {
			eng := New(g, Options{Limits: lim})
			got, err := eng.EvalPaths(plan)
			if err != nil {
				t.Fatalf("%s %s: %v", name, form, err)
			}
			if eng.Stats().QuotaRecursions > 0 {
				pushed++
			} else if recursionQuota(plan.(core.Project)).K > 0 {
				t.Errorf("%s %s: quota shape recognized but not pushed", name, form)
			}
			want, err := testutil.Unpushed(New(g, Options{Limits: lim}).EvalPaths, plan.(core.Project))
			if err != nil {
				t.Fatalf("%s %s unpushed: %v", name, form, err)
			}
			if !testutil.SameSequence(got, want) {
				t.Fatalf("%s %s: pushed evaluation differs from unpushed\n pushed:\n%s unpushed:\n%s",
					name, form, renderSet(g, got), renderSet(g, want))
			}
			checked++
			results[form] = got
			if sel.setDetermined {
				if !got.Equal(ref) {
					t.Fatalf("%s %s: engine (%d paths) != reference (%d paths)", name, form, got.Len(), ref.Len())
				}
			} else if err := checkKeptPaths(g, got, ref, closure, sel.byLength); err != nil {
				t.Fatalf("%s %s: %v", name, form, err)
			}
		}
		// ϕShortest is the Walk search under a one-length quota, so the
		// §7.3 rewrite changes no answer — not even the path ANY
		// SHORTEST WALK picks.
		if strings.Contains(planned.String(), "ϕShortest") {
			for _, dir := range []string{"", "←"} {
				if !testutil.SameSequence(results["planned"+dir], results["compiled"+dir]) {
					t.Fatalf("%s: planned%s (ϕShortest) differs from compiled%s (ϕWalk)\n planned:\n%s compiled:\n%s",
						name, dir, dir, renderSet(g, results["planned"+dir]), renderSet(g, results["compiled"+dir]))
				}
			}
			rewritten++
		}
	})
	if pushed == 0 {
		t.Error("no evaluation took the quota pushdown")
	}
	if rewritten == 0 {
		t.Error("no plan was rewritten to ϕShortest")
	}
	t.Logf("%d evaluations compared in order against the unpushed pipeline, %d under a quota; %d ϕShortest plans equal their ϕWalk form",
		checked, pushed, rewritten)
}

// TestQuotaPushdownUnbounded is the differential with no MaxLen, where
// only the restrictors bound the search: Trail, Acyclic and Simple, under
// every selector — path quotas (ANY k, SHORTEST k) and length quotas (ALL
// SHORTEST, SHORTEST k GROUP) — over small random graphs, forward and
// backward. The quota'd search arms its early stop and then drops every
// frontier path that no walk leads from to an open target, so this is
// where the goal table's unbounded sweep is checked: the result must
// equal the unpushed pipeline in order and the definitional answer as in
// TestQuotaPushdownDifferential, and some searches must have swept.
func TestQuotaPushdownUnbounded(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	var lim core.Limits
	checked, sweeps := 0, int64(0)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7300 + trial)))
		g := ldbc.MustGenerate(ldbc.Config{
			Persons:        5 + rng.Intn(3),
			Messages:       2 + rng.Intn(3),
			KnowsPerPerson: 2,
			LikesPerPerson: 1,
			CycleFraction:  0.3 + 0.1*float64(rng.Intn(5)),
			Seed:           int64(trial + 1),
		})
		quotaQueries(t, 1+rng.Intn(4), []string{"TRAIL", "ACYCLIC", "SIMPLE"}, func(query string, sel quotaSelector, logical core.PathExpr) {
			name := fmt.Sprintf("trial%d/%s", trial, query)
			ref, err := core.EvalExpr(g, logical, lim)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			gb, _ := core.BottomGroupBy(logical.(core.Project).In)
			closure, err := core.EvalExpr(g, gb.In, lim)
			if err != nil {
				t.Fatalf("%s: reference closure: %v", name, err)
			}
			planned, _ := New(g, Options{Limits: lim}).Plan(logical)
			for form, plan := range map[string]core.PathExpr{"planned": planned, "planned←": flipBackward(planned)} {
				tr := obs.NewTrace()
				root := tr.Start("query")
				got, err := New(g, Options{Limits: lim}).EvalPathsCtx(obs.WithSpan(context.Background(), root), plan)
				root.End()
				if err != nil {
					t.Fatalf("%s %s: %v", name, form, err)
				}
				if sp := findSpan(tr.Tree(), "search"); sp != nil {
					sweeps += sp.Attrs["goal_sweeps"]
				}
				want, err := testutil.Unpushed(New(g, Options{Limits: lim}).EvalPaths, plan.(core.Project))
				if err != nil {
					t.Fatalf("%s %s unpushed: %v", name, form, err)
				}
				if !testutil.SameSequence(got, want) {
					t.Fatalf("%s %s: pushed evaluation differs from unpushed\n pushed:\n%s unpushed:\n%s",
						name, form, renderSet(g, got), renderSet(g, want))
				}
				if sel.setDetermined {
					if !got.Equal(ref) {
						t.Fatalf("%s %s: engine (%d paths) != reference (%d paths)", name, form, got.Len(), ref.Len())
					}
				} else if err := checkKeptPaths(g, got, ref, closure, sel.byLength); err != nil {
					t.Fatalf("%s %s: %v", name, form, err)
				}
				checked++
			}
		})
	}
	if sweeps == 0 {
		t.Error("no search swept its goal table")
	}
	t.Logf("%d unbounded evaluations equal the unpushed pipeline and the reference; %d goal sweeps", checked, sweeps)
}

// checkKeptPaths is the representative-free oracle for a selector that
// keeps "some k" paths per endpoint pair, against the definitional answer
// ref and the closure the selector picks from (the reference evaluation of
// the bottom γ's input): every kept path is in the closure, every pair
// keeps as many paths as in ref, and — byLength, under τA or τG — the
// same lengths.
func checkKeptPaths(g *graph.Graph, got, ref, closure *pathset.Set, byLength bool) error {
	for _, p := range got.Paths() {
		if !closure.Contains(p) {
			return fmt.Errorf("kept %s, not in the closure", p.Format(g))
		}
	}
	gotLens, refLens := testutil.PairLengths(got), testutil.PairLengths(ref)
	if len(gotLens) != len(refLens) {
		return fmt.Errorf("%d pairs, reference %d", len(gotLens), len(refLens))
	}
	for pair, want := range refLens {
		have := gotLens[pair]
		if len(have) != len(want) {
			return fmt.Errorf("pair %v keeps %d paths, reference %d", pair, len(have), len(want))
		}
		if byLength && fmt.Sprint(have) != fmt.Sprint(want) {
			return fmt.Errorf("pair %v keeps lengths %v, reference %v", pair, have, want)
		}
	}
	return nil
}

// TestQuotaNotPushed: pipelines whose discarded paths decide what
// survives must evaluate without a quota.
func TestQuotaNotPushed(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 9, Messages: 5, KnowsPerPerson: 2, LikesPerPerson: 1, CycleFraction: 0.5, Seed: 3})
	all, two := core.AllCount(), core.NCount(2)
	rec := core.Recurse{Sem: core.Trail, In: knowsSel()}
	gST := core.GroupBy{Key: core.GroupST, In: rec}
	gSTL := core.OrderBy{Key: core.OrderGroup, In: core.GroupBy{Key: core.GroupSTL, In: rec}}
	under := func(in core.PathExpr) core.SpaceExpr { return core.GroupBy{Key: core.GroupST, In: in} }
	plans := map[string]core.Project{
		"descending paths":  {Parts: all, Groups: all, Paths: two.Descending(), In: gST},
		"descending groups": {Parts: all, Groups: two.Descending(), Paths: all, In: gSTL},
		"bounded parts":     {Parts: two, Groups: all, Paths: two, In: gST},
		"both bounded":      {Parts: all, Groups: two, Paths: two, In: gSTL},
		"group by source":   {Parts: all, Groups: all, Paths: two, In: core.GroupBy{Key: core.GroupSource, In: rec}},
		"partition order":   {Parts: all, Groups: all, Paths: two, In: core.OrderBy{Key: core.OrderPartition | core.OrderPath, In: gST}},
		"length σ":          {Parts: all, Groups: all, Paths: two, In: under(core.Select{Cond: cond.LenCmp{Op: cond.GE, K: 2}, In: rec})},
		"interior σ":        {Parts: all, Groups: all, Paths: two, In: under(core.Select{Cond: cond.Label(cond.NodeAt(2), ldbc.LabelPerson), In: rec})},
		"join under γ":      {Parts: all, Groups: all, Paths: two, In: under(core.Join{L: rec, R: knowsSel()})},
		"restrict under γ":  {Parts: all, Groups: all, Paths: two, In: under(core.Restrict{Sem: core.Acyclic, In: rec})},
		"shortest":          {Parts: all, Groups: all, Paths: two, In: under(core.Recurse{Sem: core.Shortest, In: knowsSel()})},
		"non-pattern base":  {Parts: all, Groups: all, Paths: two, In: under(core.Recurse{Sem: core.Trail, In: core.Union{L: knowsSel(), R: core.Nodes{}}})},
	}
	lim := core.Limits{MaxLen: 4}
	for name, plan := range plans {
		if q := recursionQuota(plan); q.K > 0 {
			t.Errorf("%s: Derive pushed quota %v, want none", name, q)
		}
		eng := New(g, Options{Limits: lim})
		got, err := eng.EvalPaths(plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := eng.Stats().QuotaRecursions; n != 0 {
			t.Errorf("%s: %d recursions ran under a quota", name, n)
		}
		want, err := testutil.Unpushed(New(g, Options{Limits: lim}).EvalPaths, plan)
		if err != nil {
			t.Fatalf("%s unpushed: %v", name, err)
		}
		if !testutil.SameSequence(got, want) {
			t.Errorf("%s: result differs from the operator-by-operator evaluation", name)
		}
	}
	// The positive control: the same recursion under the plain shapes.
	for name, plan := range map[string]core.Project{
		"ANY 2":            {Parts: all, Groups: all, Paths: two, In: gST},
		"SHORTEST 2":       {Parts: all, Groups: all, Paths: two, In: core.OrderBy{Key: core.OrderPath, In: gST}},
		"SHORTEST 2 GROUP": {Parts: all, Groups: two, Paths: all, In: gSTL},
	} {
		eng := New(g, Options{Limits: lim})
		if _, err := eng.EvalPaths(plan); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng.Stats().QuotaRecursions != 1 {
			t.Errorf("%s: quota not pushed", name)
		}
	}
}

// recursionQuota is the quota opt.Derive pushes from p's π onto the
// first recursion below it; zero when none.
func recursionQuota(p core.Project) core.Quota {
	var find func(n *opt.Node) *opt.Node
	find = func(n *opt.Node) *opt.Node {
		if _, ok := n.Path.(core.Recurse); ok {
			return n
		}
		for _, in := range n.In {
			if r := find(in); r != nil {
				return r
			}
		}
		return nil
	}
	if r := find(opt.Derive(p).Root); r != nil {
		return r.Quota
	}
	return core.Quota{}
}

// findSpan returns the first span named name in the forest, depth first.
func findSpan(spans []*obs.SpanJSON, name string) *obs.SpanJSON {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if f := findSpan(s.Children, name); f != nil {
			return f
		}
	}
	return nil
}

// TestQuotaTrace: the search span says which quota it ran under and what
// the quota saved — under Trail, the goal table's sweeps and the frontier
// paths it dropped too; a Walk search never sweeps, its frontier drains by
// itself. Explain names a pushed quota on the recursion's line.
// The search runs on the query's goroutine, so an all-pairs search has
// one span over every node and no per-worker shard spans.
// ϕShortest (what ALL SHORTEST WALK plans to) runs under its own
// one-length quota, which the span shows and Explain does not: nothing
// was pushed.
func TestQuotaTrace(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 12, Messages: 6, KnowsPerPerson: 3, LikesPerPerson: 1, CycleFraction: 0.5, Seed: 2})
	for _, tc := range []struct {
		query    string
		attrs    map[string]int64 // exact values
		positive []string         // must be > 0
		explain  string           // the quota Explain prints; "" for none
	}{
		{`MATCH ANY 2 TRAIL p = (?x)-[:Knows+]->(?y)`,
			map[string]int64{"quota_k": 2, "stop_depth": 6}, []string{"suppressed", "goal_sweeps", "goal_pruned"}, "[quota k=2 per pair]"},
		{`MATCH SHORTEST 2 GROUP WALK p = (?x)-[:Knows+]->(?y)`,
			map[string]int64{"quota_k": 2, "quota_by_length": 1, "goal_sweeps": 0, "goal_pruned": 0, "stop_depth": 7},
			[]string{"suppressed", "pruned"}, "[quota k=2 lengths per pair]"},
		{`MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)`,
			map[string]int64{"quota_k": 1, "quota_by_length": 1, "stop_depth": 6}, []string{"pruned"}, ""},
		// One source whose path quota fills in the middle of a level:
		// stop_depth is the level of the filling path, the fifth edge.
		{`MATCH ANY 2 TRAIL p = (?x:Person {id:3})-[:Knows+]->(?y)`,
			map[string]int64{"quota_k": 2, "sources": 1, "stop_depth": 5}, []string{"suppressed"}, "[quota k=2 per pair]"},
		// The same source under a one-path quota finishes between levels.
		{`MATCH ANY TRAIL p = (?x:Person {id:3})-[:Knows+]->(?y)`,
			map[string]int64{"quota_k": 1, "sources": 1, "stop_depth": 4}, []string{"suppressed"}, "[quota k=1 per pair]"},
	} {
		plan, err := compileQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(g, Options{Limits: core.Limits{MaxLen: 6}})
		tr := obs.NewTrace()
		root := tr.Start("query")
		if _, err := eng.RunCtx(obs.WithSpan(context.Background(), root), plan); err != nil {
			t.Fatal(err)
		}
		root.End()
		search := findSpan(tr.Tree(), "search")
		if search == nil {
			t.Fatalf("%s: no search span in\n%s", tc.query, tr.Format())
		}
		if findSpan(tr.Tree(), "shard") != nil {
			t.Errorf("%s: trace has a shard span:\n%s", tc.query, tr.Format())
		}
		if _, seeded := tc.attrs["sources"]; !seeded && search.Attrs["sources"] != int64(g.NumNodes()) {
			t.Errorf("%s: search span sources = %d, want the node count %d", tc.query, search.Attrs["sources"], g.NumNodes())
		}
		for k, want := range tc.attrs {
			if got, ok := search.Attrs[k]; !ok || got != want {
				t.Errorf("%s: search span %s = %d (present %v), want %d", tc.query, k, got, ok, want)
			}
		}
		for _, k := range tc.positive {
			if search.Attrs[k] <= 0 {
				t.Errorf("%s: search span %s = %d, want > 0", tc.query, k, search.Attrs[k])
			}
		}
		if _, ok := search.Attrs["quota_by_length"]; ok != (tc.attrs["quota_by_length"] == 1) {
			t.Errorf("%s: quota_by_length present = %v", tc.query, ok)
		}
		ex, err := eng.Explain(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		switch txt := ex.Format(); {
		case tc.explain == "" && strings.Contains(txt, "[quota"):
			t.Errorf("%s: explain names a quota none was pushed:\n%s", tc.query, txt)
		case tc.explain != "" && !strings.Contains(txt, tc.explain):
			t.Errorf("%s: explain lacks %q:\n%s", tc.query, tc.explain, txt)
		}
	}
	// An unquota'd search carries none of the attributes.
	plan, _ := compileQuery(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`)
	tr := obs.NewTrace()
	root := tr.Start("query")
	if _, err := New(g, Options{Limits: core.Limits{MaxLen: 4}}).RunCtx(obs.WithSpan(context.Background(), root), plan); err != nil {
		t.Fatal(err)
	}
	root.End()
	for k := range findSpan(tr.Tree(), "search").Attrs {
		if strings.HasPrefix(k, "quota") || strings.HasPrefix(k, "goal") || k == "suppressed" || k == "pruned" || k == "stop_depth" {
			t.Errorf("unquota'd search span carries %s", k)
		}
	}
}
