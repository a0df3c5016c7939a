package automaton_test

import (
	"errors"
	"fmt"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/rpq"
)

// TestEvalPathBudget: Limits.MaxPaths stops the search exactly — a budget
// of the result's size evaluates it, one path less is ErrBudgetExceeded.
func TestEvalPathBudget(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 20, KnowsPerPerson: 3, CycleFraction: 0.5, Seed: 3,
	})
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	if _, err := automaton.Eval(g, nfa, core.Trail, core.Limits{MaxPaths: 5}); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("MaxPaths=5: want ErrBudgetExceeded, got %v", err)
	}
	full, err := automaton.Eval(g, nfa, core.Trail, core.Limits{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := full.Len()
	if got, err := automaton.Eval(g, nfa, core.Trail, core.Limits{MaxLen: 3, MaxPaths: n}); err != nil || got.Len() != n {
		t.Errorf("MaxPaths=%d (the result size): got %v, err %v", n, got, err)
	}
	if _, err := automaton.Eval(g, nfa, core.Trail, core.Limits{MaxLen: 3, MaxPaths: n - 1}); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("MaxPaths=%d (one below the result size): want ErrBudgetExceeded, got %v", n-1, err)
	}
}

// TestShortestWorkBudget: Limits.MaxWork bounds Shortest-semantics
// evaluation like every other semantics. Shortest runs as the Walk search
// under a one-length quota, whose visited marks charge work, so a small
// MaxWork must trip ErrBudgetExceeded even when MaxPaths would never be
// reached.
func TestShortestWorkBudget(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 20, KnowsPerPerson: 3, CycleFraction: 0.5, Seed: 3,
	})
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	if _, err := automaton.Eval(g, nfa, core.Shortest, core.Limits{MaxWork: 8}); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("MaxWork=8 under Shortest: want ErrBudgetExceeded, got %v", err)
	}
	// A generous budget evaluates cleanly.
	if _, err := automaton.Eval(g, nfa, core.Shortest, core.Limits{}); err != nil {
		t.Errorf("default budget under Shortest: unexpected error %v", err)
	}
}

// TestEvalSeedWorkBudget is the regression test for the MaxWork bypass:
// the length-zero seed paths admitted when the automaton accepts the
// empty word must charge the work budget (1 node slot each) like every
// other admitted path, so an empty-accepting pattern over a large graph
// cannot materialize unbounded paths outside the MaxWork accounting.
func TestEvalSeedWorkBudget(t *testing.T) {
	b := graph.NewBuilder()
	const n = 20
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "Person", nil)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nfa := automaton.Build(rpq.MustParse(":Knows*")) // accepts the empty word
	if !nfa.AcceptsEmpty() {
		t.Fatal("test premise: pattern must accept the empty word")
	}

	_, err = automaton.Eval(g, nfa, core.Walk, core.Limits{MaxWork: n / 2})
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("MaxWork=%d over %d seed paths: want ErrBudgetExceeded, got %v", n/2, n, err)
	}

	got, err := automaton.Eval(g, nfa, core.Walk, core.Limits{MaxWork: 2 * n})
	if err != nil {
		t.Fatalf("MaxWork=%d: unexpected error %v", 2*n, err)
	}
	if got.Len() != n {
		t.Errorf("want %d seed paths, got %d", n, got.Len())
	}
}
