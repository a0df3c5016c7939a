package automaton_test

import (
	"errors"
	"strings"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/rpq"
)

// alphabet is a graph whose edge-label symbol table holds every label
// the language tests read.
var alphabet = func() *graph.Graph {
	b := graph.NewBuilder()
	b.AddNode("a", "", nil)
	for _, l := range []string{"A", "B", "C", "X"} {
		b.AddEdge(l, "a", "a", l, nil)
	}
	return b.MustBuild()
}()

// word feeds a label sequence through the NFA, compiled over alphabet's
// symbols, and reports acceptance.
func word(n *automaton.NFA, labels ...string) bool {
	c := n.Compile(alphabet)
	states := map[automaton.StateID]bool{0: true}
	for _, l := range labels {
		next := map[automaton.StateID]bool{}
		for s := range states {
			for _, q := range c.Trans(s, alphabet.SymbolOf(l)) {
				next[q] = true
			}
		}
		states = next
	}
	for s := range states {
		if n.Accepting(s) {
			return true
		}
	}
	return false
}

func TestGlushkovLanguages(t *testing.T) {
	tests := []struct {
		re     string
		accept [][]string
		reject [][]string
	}{
		{
			re:     ":A",
			accept: [][]string{{"A"}},
			reject: [][]string{{}, {"B"}, {"A", "A"}},
		},
		{
			re:     ":A+",
			accept: [][]string{{"A"}, {"A", "A"}, {"A", "A", "A"}},
			reject: [][]string{{}, {"B"}, {"A", "B"}},
		},
		{
			re:     ":A*",
			accept: [][]string{{}, {"A"}, {"A", "A"}},
			reject: [][]string{{"B"}, {"A", "B"}},
		},
		{
			re:     ":A?",
			accept: [][]string{{}, {"A"}},
			reject: [][]string{{"A", "A"}, {"B"}},
		},
		{
			re:     ":A/:B",
			accept: [][]string{{"A", "B"}},
			reject: [][]string{{}, {"A"}, {"B"}, {"B", "A"}, {"A", "B", "A"}},
		},
		{
			re:     ":A|:B",
			accept: [][]string{{"A"}, {"B"}},
			reject: [][]string{{}, {"A", "B"}, {"C"}},
		},
		{
			re:     "(:A/:B)*",
			accept: [][]string{{}, {"A", "B"}, {"A", "B", "A", "B"}},
			reject: [][]string{{"A"}, {"A", "B", "A"}, {"B", "A"}},
		},
		{
			re:     "(:A|:B)+/:C",
			accept: [][]string{{"A", "C"}, {"B", "A", "C"}},
			reject: [][]string{{"C"}, {"A"}, {"A", "C", "C"}},
		},
		{
			re:     "-/:B",
			accept: [][]string{{"X", "B"}, {"B", "B"}},
			reject: [][]string{{"B"}, {"X", "X"}},
		},
		{
			re:     "(:A*)/(:B*)",
			accept: [][]string{{}, {"A"}, {"B"}, {"A", "B"}, {"A", "A", "B", "B"}},
			reject: [][]string{{"B", "A"}},
		},
	}
	for _, tc := range tests {
		nfa := automaton.Build(rpq.MustParse(tc.re))
		for _, w := range tc.accept {
			if !word(nfa, w...) {
				t.Errorf("%s must accept %v\n%s", tc.re, w, nfa)
			}
		}
		for _, w := range tc.reject {
			if word(nfa, w...) {
				t.Errorf("%s must reject %v\n%s", tc.re, w, nfa)
			}
		}
	}
}

func TestNFAString(t *testing.T) {
	s := automaton.Build(rpq.MustParse(":A+")).String()
	for _, want := range []string{"start=0", "--A-->", "(accepting)"} {
		if !strings.Contains(s, want) {
			t.Errorf("NFA.String missing %q:\n%s", want, s)
		}
	}
}

// TestEvalKnowsPlus: the automaton baseline on Knows+ over Figure 1 must
// agree with Table 3 for each non-Walk semantics.
func TestEvalKnowsPlus(t *testing.T) {
	g := ldbc.Figure1()
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	tests := []struct {
		sem  core.Semantics
		size int
	}{
		{core.Trail, 12},
		{core.Acyclic, 7},
		{core.Simple, 9},
		{core.Shortest, 9},
	}
	for _, tc := range tests {
		got, err := automaton.Eval(g, nfa, tc.sem, core.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sem, err)
		}
		if got.Len() != tc.size {
			t.Errorf("%s: %d paths, want %d:\n%s", tc.sem, got.Len(), tc.size, got.Format(g))
		}
	}
}

// TestAutomatonMatchesAlgebra cross-checks the automaton baseline against
// the algebraic engine on patterns where the two semantics coincide (the
// recursion spans the whole expression).
func TestAutomatonMatchesAlgebra(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure1": ldbc.Figure1(),
		"snb": ldbc.MustGenerate(ldbc.Config{
			Persons: 12, Messages: 8, KnowsPerPerson: 2, LikesPerPerson: 1,
			CycleFraction: 0.5, Seed: 42,
		}),
	}
	patterns := []string{
		":Knows+",
		"(:Likes/:Has_creator)+",
		"(:Knows|:Likes)+",
		":Knows",
		":Likes/:Has_creator",
	}
	sems := []core.Semantics{core.Trail, core.Acyclic, core.Simple, core.Shortest}
	for gname, g := range graphs {
		for _, pat := range patterns {
			re := rpq.MustParse(pat)
			nfa := automaton.Build(re)
			for _, sem := range sems {
				if sem == core.Shortest && !rpq.HasRecursion(re) {
					// Non-recursive algebra plans have no ϕ to carry the
					// Shortest filter; skip the comparison.
					continue
				}
				auto, err := automaton.Eval(g, nfa, sem, core.Limits{})
				if err != nil {
					t.Fatalf("%s/%s/%s automaton: %v", gname, pat, sem, err)
				}
				eng := engine.New(g, engine.Options{})
				alg, err := eng.EvalPaths(rpq.Compile(re, sem))
				if err != nil {
					t.Fatalf("%s/%s/%s algebra: %v", gname, pat, sem, err)
				}
				if !auto.Equal(alg) {
					t.Errorf("%s/%s/%s: automaton %d paths, algebra %d paths\nautomaton:\n%s\nalgebra:\n%s",
						gname, pat, sem, auto.Len(), alg.Len(),
						auto.Format(g), alg.Format(g))
				}
			}
		}
	}
}

// TestAutomatonMatchesAlgebraWalkBounded compares Walk semantics under the
// same length bound.
func TestAutomatonMatchesAlgebraWalkBounded(t *testing.T) {
	g := ldbc.Figure1()
	for _, pat := range []string{":Knows+", "(:Likes/:Has_creator)+", "(:Knows|:Likes)+"} {
		re := rpq.MustParse(pat)
		lim := core.Limits{MaxLen: 5}
		auto, err := automaton.Eval(g, automaton.Build(re), core.Walk, lim)
		if err != nil {
			t.Fatalf("%s automaton: %v", pat, err)
		}
		eng := engine.New(g, engine.Options{Limits: lim})
		alg, err := eng.EvalPaths(rpq.Compile(re, core.Walk))
		if err != nil {
			t.Fatalf("%s algebra: %v", pat, err)
		}
		if !auto.Equal(alg) {
			t.Errorf("%s bounded walk mismatch: automaton %d vs algebra %d",
				pat, auto.Len(), alg.Len())
		}
	}
}

// TestEvalStar: star patterns accept every node as a length-zero path.
func TestEvalStar(t *testing.T) {
	g := ldbc.Figure1()
	got, err := automaton.Eval(g, automaton.Build(rpq.MustParse(":Knows*")), core.Trail, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumNodes(); i++ {
		if !got.Contains(path.FromNode(graph.NodeID(i))) {
			t.Errorf("star result missing node path (%s)", g.Node(graph.NodeID(i)).Key)
		}
	}
	// Trail results of Knows* = 7 nodes + 12 trails.
	if got.Len() != 19 {
		t.Errorf("Knows* under Trail = %d paths, want 19", got.Len())
	}
}

func TestEvalWalkBudget(t *testing.T) {
	g := ldbc.Figure1()
	_, err := automaton.Eval(g, automaton.Build(rpq.MustParse(":Knows+")), core.Walk, core.Limits{MaxPaths: 10})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("unbounded walk on cycle: err = %v, want budget error", err)
	}
}

func TestShortestBudgetError(t *testing.T) {
	g := ldbc.Figure1()
	_, err := automaton.Eval(g, automaton.Build(rpq.MustParse(":Knows+")), core.Shortest, core.Limits{MaxPaths: 3})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget error", err)
	}
}

// TestShortestPerPairMinimality: every result path is minimal for its
// endpoint pair and all equal-length alternatives are present.
func TestShortestPerPairMinimality(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 15, Messages: 0, KnowsPerPerson: 3, CycleFraction: 0.4, Seed: 7,
	})
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	shortest, err := automaton.Eval(g, nfa, core.Shortest, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	walks, err := automaton.Eval(g, nfa, core.Walk, core.Limits{MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ s, d graph.NodeID }
	min := map[pair]int{}
	for _, p := range walks.Paths() {
		k := pair{p.First(), p.Last()}
		if m, ok := min[k]; !ok || p.Len() < m {
			min[k] = p.Len()
		}
	}
	for _, p := range shortest.Paths() {
		// Pairs only reachable beyond the walk bound have no reference
		// minimum; skip those.
		if m, ok := min[pair{p.First(), p.Last()}]; ok && p.Len() <= 6 && p.Len() != m {
			t.Errorf("non-minimal shortest path %s (len %d, min %d)", p.Format(g), p.Len(), m)
		}
	}
	for _, p := range walks.Paths() {
		if p.Len() == min[pair{p.First(), p.Last()}] && !shortest.Contains(p) {
			t.Errorf("minimal walk %s missing from shortest results", p.Format(g))
		}
	}
}
