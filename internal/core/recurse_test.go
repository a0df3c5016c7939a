package core

import (
	"errors"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// table3 lists the 14 paths of the paper's Table 3 (matches of Knows+ on
// the Figure 1 graph) with their W/T/A/S/Sh membership flags.
type table3Row struct {
	id                               string
	keys                             []string
	trail, acyclic, simple, shortest bool
}

func table3Rows() []table3Row {
	return []table3Row{
		{"p1", []string{"n1", "e1", "n2"}, true, true, true, true},
		{"p2", []string{"n1", "e1", "n2", "e2", "n3", "e3", "n2"}, true, false, false, false},
		{"p3", []string{"n1", "e1", "n2", "e2", "n3"}, true, true, true, true},
		{"p4", []string{"n1", "e1", "n2", "e2", "n3", "e3", "n2", "e2", "n3"}, false, false, false, false},
		{"p5", []string{"n1", "e1", "n2", "e4", "n4"}, true, true, true, true},
		{"p6", []string{"n1", "e1", "n2", "e2", "n3", "e3", "n2", "e4", "n4"}, true, false, false, false},
		{"p7", []string{"n2", "e2", "n3", "e3", "n2"}, true, false, true, true},
		{"p8", []string{"n2", "e2", "n3", "e3", "n2", "e2", "n3", "e3", "n2"}, false, false, false, false},
		{"p9", []string{"n2", "e2", "n3"}, true, true, true, true},
		{"p10", []string{"n2", "e2", "n3", "e3", "n2", "e2", "n3"}, false, false, false, false},
		{"p11", []string{"n2", "e4", "n4"}, true, true, true, true},
		{"p12", []string{"n2", "e2", "n3", "e3", "n2", "e4", "n4"}, true, false, false, false},
		{"p13", []string{"n3", "e3", "n2", "e4", "n4"}, true, true, true, true},
		{"p14", []string{"n3", "e3", "n2", "e2", "n3", "e3", "n2", "e4", "n4"}, false, false, false, false},
	}
}

// TestTable3 reproduces the paper's Table 3: for each listed path, its
// membership in ϕWalk, ϕTrail, ϕAcyclic, ϕSimple and ϕShortest of
// σ[Knows](Edges(G)) on the Figure 1 graph. Walk is evaluated under a
// length bound (the full answer is infinite, as the paper notes).
func TestTable3(t *testing.T) {
	g := ldbc.Figure1()
	base := knowsEdges(g)

	walk, err := EvalRecurse(Walk, base, Limits{MaxLen: 4})
	if err != nil {
		t.Fatalf("ϕWalk: %v", err)
	}
	results := map[string]*pathset.Set{"W": walk}
	for _, tc := range []struct {
		col string
		sem Semantics
	}{{"T", Trail}, {"A", Acyclic}, {"S", Simple}, {"Sh", Shortest}} {
		s, err := EvalRecurse(tc.sem, base, Limits{})
		if err != nil {
			t.Fatalf("ϕ%s: %v", tc.sem, err)
		}
		results[tc.col] = s
	}

	for _, row := range table3Rows() {
		p := path.MustFromKeys(g, row.keys...)
		if !results["W"].Contains(p) {
			t.Errorf("%s missing from ϕWalk (bounded)", row.id)
		}
		checks := []struct {
			col  string
			want bool
		}{
			{"T", row.trail}, {"A", row.acyclic}, {"S", row.simple}, {"Sh", row.shortest},
		}
		for _, c := range checks {
			if got := results[c.col].Contains(p); got != c.want {
				t.Errorf("%s in ϕ%s = %v, want %v", row.id, c.col, got, c.want)
			}
		}
	}
}

// TestTrailComplete checks ϕTrail(Knows) exhaustively: the Knows subgraph
// has exactly 12 trails of length ≥ 1 (the paper's Table 3 lists the 10
// starting at n1/n2/n3 that its examples use, plus (n3,e3,n2) and
// (n3,e3,n2,e2,n3) which the table omits as it shows only "some paths").
func TestTrailComplete(t *testing.T) {
	g := ldbc.Figure1()
	trails, err := EvalRecurse(Trail, knowsEdges(g), Limits{})
	if err != nil {
		t.Fatalf("ϕTrail: %v", err)
	}
	if trails.Len() != 12 {
		t.Fatalf("ϕTrail produced %d paths, want 12:\n%s", trails.Len(), trails.Format(g))
	}
	extra := []path.Path{
		path.MustFromKeys(g, "n3", "e3", "n2"),
		path.MustFromKeys(g, "n3", "e3", "n2", "e2", "n3"),
	}
	for _, p := range extra {
		if !trails.Contains(p) {
			t.Errorf("ϕTrail missing %s", p.Format(g))
		}
	}
}

// TestShortestComplete checks ϕShortest(Knows) exhaustively: per endpoint
// pair, exactly the minimal-length Knows+ walks.
func TestShortestComplete(t *testing.T) {
	g := ldbc.Figure1()
	got, err := EvalRecurse(Shortest, knowsEdges(g), Limits{})
	if err != nil {
		t.Fatalf("ϕShortest: %v", err)
	}
	want := pathset.FromPaths(
		path.MustFromKeys(g, "n1", "e1", "n2"),             // n1→n2
		path.MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"), // n1→n3
		path.MustFromKeys(g, "n1", "e1", "n2", "e4", "n4"), // n1→n4
		path.MustFromKeys(g, "n2", "e2", "n3"),             // n2→n3
		path.MustFromKeys(g, "n2", "e4", "n4"),             // n2→n4
		path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2"), // n2→n2
		path.MustFromKeys(g, "n3", "e3", "n2"),             // n3→n2
		path.MustFromKeys(g, "n3", "e3", "n2", "e4", "n4"), // n3→n4
		path.MustFromKeys(g, "n3", "e3", "n2", "e2", "n3"), // n3→n3
	)
	if !got.Equal(want) {
		t.Errorf("ϕShortest =\n%s\nwant\n%s", got.Format(g), want.Format(g))
	}
}

// TestAcyclicComplete checks ϕAcyclic(Knows) exhaustively.
func TestAcyclicComplete(t *testing.T) {
	g := ldbc.Figure1()
	got, err := EvalRecurse(Acyclic, knowsEdges(g), Limits{})
	if err != nil {
		t.Fatalf("ϕAcyclic: %v", err)
	}
	want := pathset.FromPaths(
		path.MustFromKeys(g, "n1", "e1", "n2"),
		path.MustFromKeys(g, "n2", "e2", "n3"),
		path.MustFromKeys(g, "n3", "e3", "n2"),
		path.MustFromKeys(g, "n2", "e4", "n4"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e4", "n4"),
		path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2"), // not acyclic!
	)
	// Remove the cycle: it is simple but not acyclic.
	want = want.Filter(func(p path.Path) bool { return p.IsAcyclic() })
	want.Add(path.MustFromKeys(g, "n3", "e3", "n2", "e4", "n4"))
	if !got.Equal(want) {
		t.Errorf("ϕAcyclic =\n%s\nwant\n%s", got.Format(g), want.Format(g))
	}
}

// TestSimpleVsAcyclic: ϕSimple adds exactly the simple cycles.
func TestSimpleVsAcyclic(t *testing.T) {
	g := ldbc.Figure1()
	acyclic, err := EvalRecurse(Acyclic, knowsEdges(g), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	simple, err := EvalRecurse(Simple, knowsEdges(g), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	diff := simple.Filter(func(p path.Path) bool { return !acyclic.Contains(p) })
	want := pathset.FromPaths(
		path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2"),
		path.MustFromKeys(g, "n3", "e3", "n2", "e2", "n3"),
	)
	if !diff.Equal(want) {
		t.Errorf("ϕSimple \\ ϕAcyclic =\n%s\nwant the two simple cycles", diff.Format(g))
	}
}

// TestWalkBudget: ϕWalk over the cyclic Knows subgraph must fail loudly
// without a length bound (the paper: "the query will never halt").
func TestWalkBudget(t *testing.T) {
	g := ldbc.Figure1()
	_, err := EvalRecurse(Walk, knowsEdges(g), Limits{MaxPaths: 100})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ϕWalk on a cycle = %v, want ErrBudgetExceeded", err)
	}
	// With a MaxLen bound it terminates.
	s, err := EvalRecurse(Walk, knowsEdges(g), Limits{MaxLen: 6})
	if err != nil {
		t.Fatalf("bounded ϕWalk: %v", err)
	}
	for _, p := range s.Paths() {
		if p.Len() > 6 {
			t.Errorf("bounded walk produced length %d", p.Len())
		}
	}
}

// TestWalkAcyclicInputTerminates: on an acyclic base set ϕWalk reaches the
// Definition 4.1 fix point without budgets.
func TestWalkAcyclicInputTerminates(t *testing.T) {
	b := graph.NewBuilder()
	for _, k := range []string{"a", "b", "c", "d"} {
		b.AddNode(k, "N", nil)
	}
	b.AddEdge("x", "a", "b", "E", nil)
	b.AddEdge("y", "b", "c", "E", nil)
	b.AddEdge("z", "c", "d", "E", nil)
	g := b.MustBuild()
	s, err := EvalRecurse(Walk, EvalEdges(g), Limits{})
	if err != nil {
		t.Fatalf("ϕWalk on a chain: %v", err)
	}
	// Chain a→b→c→d: paths of lengths 1,2,3 = 3+2+1 = 6.
	if s.Len() != 6 {
		t.Errorf("ϕWalk(chain) = %d paths, want 6:\n%s", s.Len(), s.Format(g))
	}
}

// TestRecursionAgreesWithDefinition cross-checks the frontier expansion
// against a literal transcription of Definition 4.1 on an acyclic input.
func TestRecursionAgreesWithDefinition(t *testing.T) {
	b := graph.NewBuilder()
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		b.AddNode(k, "N", nil)
	}
	b.AddEdge("x1", "a", "b", "E", nil)
	b.AddEdge("x2", "b", "c", "E", nil)
	b.AddEdge("x3", "b", "d", "E", nil)
	b.AddEdge("x4", "c", "e", "E", nil)
	b.AddEdge("x5", "d", "e", "E", nil)
	g := b.MustBuild()
	base := EvalEdges(g)

	// Literal Definition 4.1: Si = S(i-1) ⋈ S until fix point.
	naive := base.Clone()
	level := base
	for {
		next := EvalJoin(level, base)
		before := naive.Len()
		naive.AddAll(next)
		if naive.Len() == before {
			break
		}
		level = next
	}

	got, err := EvalRecurse(Walk, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(naive) {
		t.Errorf("frontier expansion disagrees with Definition 4.1:\n%s\nvs\n%s",
			got.Format(g), naive.Format(g))
	}
}

// TestRecurseIncludesBase: ϕ(S) ⊇ admissible paths of S (base case ϕ0).
func TestRecurseIncludesBase(t *testing.T) {
	g := ldbc.Figure1()
	base := knowsEdges(g)
	for _, sem := range AllSemantics() {
		lim := Limits{}
		if sem == Walk {
			lim.MaxLen = 3
		}
		s, err := EvalRecurse(sem, base, lim)
		if err != nil {
			t.Fatalf("ϕ%s: %v", sem, err)
		}
		for _, p := range base.Paths() {
			if sem == Shortest {
				continue // shortest keeps only per-pair minima
			}
			if sem.Admits(p) && !s.Contains(p) {
				t.Errorf("ϕ%s missing base path %s", sem, p.Format(g))
			}
		}
	}
}

// TestRecurseMixedLengthBase exercises ϕ over a base of length-2 paths —
// the (Likes/Has_creator)+ pattern of Figures 2 and 4.
func TestRecurseMixedLengthBase(t *testing.T) {
	g := ldbc.Figure1()
	likes := EvalSelect(g, cond.Label(cond.EdgeAt(1), ldbc.LabelLikes), EvalEdges(g))
	hc := EvalSelect(g, cond.Label(cond.EdgeAt(1), ldbc.LabelHasCreator), EvalEdges(g))
	base := EvalJoin(likes, hc)
	simple, err := EvalRecurse(Simple, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// The outer cycle contributes (Likes/Has_creator)^k simple paths; the
	// intro's path2 n1→n4 must be among them.
	path2 := path.MustFromKeys(g, "n1", "e8", "n6", "e11", "n3", "e7", "n7", "e10", "n4")
	if !simple.Contains(path2) {
		t.Errorf("ϕSimple((Likes/HC)+) missing the intro's path2:\n%s", simple.Format(g))
	}
	for _, p := range simple.Paths() {
		if p.Len()%2 != 0 {
			t.Errorf("odd-length path %s in (Likes/HC)+", p.Format(g))
		}
	}
}

// TestShortestWithZeroLengthBase: nodes in the base set make length 0 the
// per-pair minimum for (n, n).
func TestShortestWithZeroLengthBase(t *testing.T) {
	g := ldbc.Figure1()
	base := EvalUnion(knowsEdges(g), EvalNodes(g))
	s, err := EvalRecurse(Shortest, base, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := g.NodeByKey("n2")
	if !s.Contains(path.FromNode(n2.ID)) {
		t.Error("zero-length path (n2) must be the shortest n2→n2 path")
	}
	if s.Contains(path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2")) {
		t.Error("the n2→n2 cycle must lose to the zero-length path")
	}
}

// TestShortestBudget: the budget also applies to ϕShortest results.
func TestShortestBudget(t *testing.T) {
	g := ldbc.Figure1()
	_, err := EvalRecurse(Shortest, EvalEdges(g), Limits{MaxPaths: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}
