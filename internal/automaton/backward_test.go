package automaton

import (
	"fmt"
	"math/rand"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/rpq"
	"pathalgebra/internal/testutil"
)

// randExpr builds a random regular path expression over the SNB labels.
func randExpr(rng *rand.Rand, depth int) rpq.Expr {
	labels := []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator}
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(6) == 0 {
			return rpq.AnyLabel{}
		}
		return rpq.Label{Name: labels[rng.Intn(len(labels))]}
	}
	l := randExpr(rng, depth-1)
	r := randExpr(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return rpq.Concat{L: l, R: r}
	case 1:
		return rpq.Alt{L: l, R: r}
	default:
		return rpq.Concat{L: l, R: rpq.Opt{In: r}}
	}
}

// TestBackwardEqualsForward cross-checks the backward product search
// (reversed automaton over in-adjacency, results materialized reversed)
// against the forward search on random graphs, patterns and semantics.
func TestBackwardEqualsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lim := core.Limits{MaxLen: 4}
	for trial := 0; trial < 10; trial++ {
		g := ldbc.MustGenerate(ldbc.Config{
			Persons:        4 + rng.Intn(10),
			Messages:       rng.Intn(6),
			KnowsPerPerson: 1 + rng.Intn(3),
			LikesPerPerson: rng.Intn(3),
			CycleFraction:  float64(rng.Intn(11)) / 10,
			Seed:           rng.Int63(),
		})
		pattern := rpq.Plus{In: randExpr(rng, 2)}
		fwd := Build(pattern)
		bwd := Build(rpq.Reverse(pattern))
		for _, sem := range core.AllSemantics() {
			name := fmt.Sprintf("trial%d/%s/%s", trial, pattern, sem)
			want, err := Eval(g, fwd, sem, lim)
			if err != nil {
				t.Fatalf("%s forward: %v", name, err)
			}
			got, err := EvalWithOptions(g, bwd, sem, lim, EvalOptions{Dir: core.Backward})
			if err != nil {
				t.Fatalf("%s backward: %v", name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s backward: %d paths, forward %d", name, got.Len(), want.Len())
			}
		}
	}
}

// TestSeededSubset: seeding the forward search at a source subset returns
// exactly the full result filtered to those sources, in the same relative
// order; seeding the backward search filters by path target.
func TestSeededSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lim := core.Limits{MaxLen: 4}
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 10, Messages: 5, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.5, Seed: 11,
	})
	for trial := 0; trial < 6; trial++ {
		pattern := rpq.Plus{In: randExpr(rng, 1)}
		fwd := Build(pattern)
		bwd := Build(rpq.Reverse(pattern))
		var seeds []graph.NodeID
		for n := 0; n < g.NumNodes(); n++ {
			if rng.Intn(2) == 0 {
				seeds = append(seeds, graph.NodeID(n))
			}
		}
		inSeeds := func(n graph.NodeID) bool {
			for _, s := range seeds {
				if s == n {
					return true
				}
			}
			return false
		}
		for _, sem := range core.AllSemantics() {
			name := fmt.Sprintf("trial%d/%s/%s", trial, pattern, sem)
			full, err := Eval(g, fwd, sem, lim)
			if err != nil {
				t.Fatalf("%s full: %v", name, err)
			}
			got, err := EvalWithOptions(g, fwd, sem, lim, EvalOptions{Seeds: seeds})
			if err != nil {
				t.Fatalf("%s seeded: %v", name, err)
			}
			want := full.Filter(func(p path.Path) bool { return inSeeds(p.First()) })
			if !testutil.SameSequence(got, want) {
				t.Errorf("%s: seeded forward differs from filtered full result (got %d, want %d)",
					name, got.Len(), want.Len())
			}
			gotB, err := EvalWithOptions(g, bwd, sem, lim, EvalOptions{Dir: core.Backward, Seeds: seeds})
			if err != nil {
				t.Fatalf("%s seeded backward: %v", name, err)
			}
			wantB := full.Filter(func(p path.Path) bool { return inSeeds(p.Last()) })
			if !gotB.Equal(wantB) {
				t.Errorf("%s: seeded backward differs from target-filtered result (got %d, want %d)",
					name, gotB.Len(), wantB.Len())
			}
		}
	}
}
