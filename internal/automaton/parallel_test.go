package automaton_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
)

// samePathSequence reports whether two sets hold identical paths in
// identical insertion order — the byte-identical guarantee, stronger than
// Set.Equal (which ignores order).
func samePathSequence(a, b *pathset.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, p := range a.Paths() {
		if !p.Equal(b.At(i)) {
			return false
		}
	}
	return true
}

// TestEvalParallelByteIdentical: for random graphs, random patterns and
// every semantics, EvalParallel at 2, 4 and 8 workers reproduces the
// sequential result exactly, including insertion order.
func TestEvalParallelByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	patterns := []string{
		":Knows+", ":Knows*", "(:Likes/:Has_creator)+", "(:Knows|:Likes)+", "-+",
	}
	for trial := 0; trial < 6; trial++ {
		g := ldbc.MustGenerate(ldbc.Config{
			Persons:        4 + rng.Intn(12),
			Messages:       rng.Intn(10),
			KnowsPerPerson: 1 + rng.Intn(3),
			LikesPerPerson: rng.Intn(3),
			CycleFraction:  float64(rng.Intn(11)) / 10,
			Seed:           rng.Int63(),
		})
		for _, pat := range patterns {
			nfa := automaton.Build(rpq.MustParse(pat))
			lim := core.Limits{MaxLen: 4}
			for _, sem := range core.AllSemantics() {
				name := fmt.Sprintf("trial%d/%s/%s", trial, pat, sem)
				want, err := automaton.Eval(g, nfa, sem, lim)
				if err != nil {
					t.Fatalf("%s sequential: %v", name, err)
				}
				for _, workers := range []int{2, 4, 8} {
					got, err := automaton.EvalParallel(g, nfa, sem, lim, workers)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if !samePathSequence(want, got) {
						t.Errorf("%s workers=%d: output diverges from sequential (%d vs %d paths)",
							name, workers, want.Len(), got.Len())
					}
				}
			}
		}
	}
}

// TestEvalParallelSharedBudget: MaxPaths is enforced globally across
// shards, so an over-budget query errors at every worker count.
func TestEvalParallelSharedBudget(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 20, KnowsPerPerson: 3, CycleFraction: 0.5, Seed: 3,
	})
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := automaton.EvalParallel(g, nfa, core.Trail, core.Limits{MaxPaths: 5}, workers)
		if !errors.Is(err, core.ErrBudgetExceeded) {
			t.Errorf("workers=%d: want ErrBudgetExceeded, got %v", workers, err)
		}
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
	for _, workers := range []int{1, 2, 4} {
		_, err := automaton.EvalParallel(g, nfa, core.Shortest, core.Limits{MaxWork: 8}, workers)
		if !errors.Is(err, core.ErrBudgetExceeded) {
			t.Errorf("workers=%d: MaxWork=8 under Shortest: want ErrBudgetExceeded, got %v", workers, err)
		}
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
