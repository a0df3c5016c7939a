package automaton

import (
	"fmt"
	"math/rand"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
	"pathalgebra/internal/testutil"
)

// perPairPrefix is the contract of EvalOptions.Quota spelled out: walk the
// unrestricted result in order and keep, per endpoint pair, the first K
// paths — or every path until a (K+1)-th distinct length shows up.
func perPairPrefix(full *pathset.Set, q core.Quota) *pathset.Set {
	type count struct{ n, level int }
	seen := make(map[[2]graph.NodeID]count)
	return full.Filter(func(p path.Path) bool {
		k := [2]graph.NodeID{p.First(), p.Last()}
		c := seen[k]
		switch {
		case q.ByLength && c.n > 0 && c.level == p.Len():
			return true
		case c.n >= q.K:
			return false
		}
		seen[k] = count{n: c.n + 1, level: p.Len()}
		return true
	})
}

// TestQuotaIsPerPairPrefix: under every semantics, direction and quota, the quota'd search returns exactly the per-pair prefix of the
// unrestricted search's result, in the same order. The patterns include
// what the engine never sends — empty-word-accepting automata, optional
// parts, ambiguous alternations whose runs merge and split — because the
// Walk state pruning and the one-answer-per-path rule are about NFA
// states, not labels.
func TestQuotaIsPerPairPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fixed := []rpq.Expr{
		rpq.MustParse("(:Knows|(:Knows/:Knows))+"),
		rpq.MustParse("(:Knows|:Likes)*"),
		rpq.MustParse("((:Knows/:Knows?)|:Knows)+"),
		rpq.MustParse("(:Likes/:Has_creator)+|(:Knows+)"),
	}
	quotas := []core.Quota{{K: 1}, {K: 2}, {K: 3}, {K: 1, ByLength: true}, {K: 2, ByLength: true}}
	checked := 0
	for trial := 0; trial < 40; trial++ {
		g := ldbc.MustGenerate(ldbc.Config{
			Persons:        5 + rng.Intn(8),
			Messages:       rng.Intn(6),
			KnowsPerPerson: 1 + rng.Intn(3),
			LikesPerPerson: rng.Intn(3),
			CycleFraction:  float64(rng.Intn(11)) / 10,
			Seed:           rng.Int63(),
		})
		var pattern rpq.Expr = rpq.Plus{In: randExpr(rng, 2)}
		if trial < len(fixed) {
			pattern = fixed[trial]
		}
		lim := core.Limits{MaxLen: 3 + rng.Intn(3)}
		nfas := map[core.Direction]*NFA{core.Forward: Build(pattern), core.Backward: Build(rpq.Reverse(pattern))}
		for _, sem := range []core.Semantics{core.Walk, core.Trail, core.Acyclic, core.Simple} {
			for dir, nfa := range nfas {
				full, err := EvalWithOptions(g, nfa, sem, lim, EvalOptions{Dir: dir})
				if err != nil {
					t.Fatalf("trial%d/%s/%s/%s full: %v", trial, pattern, sem, dir, err)
				}
				for _, q := range quotas {
					want := perPairPrefix(full, q)
					name := fmt.Sprintf("trial%d/%s/%s/%s/%v", trial, pattern, sem, dir, q)
					got, err := EvalWithOptions(g, nfa, sem, lim, EvalOptions{Dir: dir, Quota: q})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !testutil.SameSequence(got, want) {
						t.Fatalf("%s: %d paths, per-pair prefix of the full result has %d", name, got.Len(), want.Len())
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d quota'd searches equal the per-pair prefix", checked)
}

// minimalPerPair keeps, in order, the paths of each (first, last) pair
// whose length is that pair's minimum.
func minimalPerPair(full *pathset.Set) *pathset.Set {
	minLen := make(map[[2]graph.NodeID]int)
	for _, p := range full.Paths() {
		k := [2]graph.NodeID{p.First(), p.Last()}
		if m, ok := minLen[k]; !ok || p.Len() < m {
			minLen[k] = p.Len()
		}
	}
	return full.Filter(func(p path.Path) bool {
		return p.Len() == minLen[[2]graph.NodeID{p.First(), p.Last()}]
	})
}

// TestShortestIsLengthQuotaWalk: Shortest semantics returns, in order,
// the Walk search's result at the same MaxLen filtered to each pair's
// minimal length — forward and backward, over every source and over a
// seed list.
func TestShortestIsLengthQuotaWalk(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure1": ldbc.Figure1(),
		"ldbc3": ldbc.MustGenerate(ldbc.Config{Persons: 12, Messages: 8, KnowsPerPerson: 2, LikesPerPerson: 2,
			CycleFraction: 0.5, Seed: 3}),
		"ldbc11": ldbc.MustGenerate(ldbc.Config{Persons: 9, Messages: 10, KnowsPerPerson: 3, LikesPerPerson: 1,
			CycleFraction: 0.8, Seed: 11}),
	}
	lim := core.Limits{MaxLen: 5}
	checked := 0
	for gname, g := range graphs {
		var seeds []graph.NodeID
		for n := 0; n < g.NumNodes(); n += 2 {
			seeds = append(seeds, graph.NodeID(n))
		}
		for _, pat := range []string{":Knows+", "(:Likes/:Has_creator)+", "(:Knows|:Likes)+"} {
			re := rpq.MustParse(pat)
			nfas := map[core.Direction]*NFA{core.Forward: Build(re), core.Backward: Build(rpq.Reverse(re))}
			for dir, nfa := range nfas {
				for _, sd := range [][]graph.NodeID{nil, seeds} {
					walk, err := EvalWithOptions(g, nfa, core.Walk, lim, EvalOptions{Dir: dir, Seeds: sd})
					if err != nil {
						t.Fatalf("%s/%s/%s walk: %v", gname, pat, dir, err)
					}
					want := minimalPerPair(walk)
					name := fmt.Sprintf("%s/%s/%s/seeded=%v", gname, pat, dir, sd != nil)
					got, err := EvalWithOptions(g, nfa, core.Shortest, lim, EvalOptions{Dir: dir, Seeds: sd})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !testutil.SameSequence(got, want) {
						t.Fatalf("%s: Shortest gives %d paths, the minimal-length filter of Walk %d (or a different order)",
							name, got.Len(), want.Len())
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d Shortest evaluations equal the minimal-length filter of Walk", checked)
}

// TestQuotaWalkNeedsNoMaxLen: with a quota the Walk search terminates on a
// cyclic graph with no length bound and no budget error, and what it
// returns is the per-pair prefix of a search bounded just long enough to
// contain it.
func TestQuotaWalkNeedsNoMaxLen(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 8, Messages: 4, KnowsPerPerson: 2, LikesPerPerson: 1, CycleFraction: 1, Seed: 5})
	nfa := Build(rpq.MustParse("(:Knows|:Likes/:Has_creator)+"))
	for _, q := range []core.Quota{{K: 1}, {K: 3}, {K: 2, ByLength: true}} {
		got, err := EvalWithOptions(g, nfa, core.Walk, core.Limits{}, EvalOptions{Quota: q})
		if err != nil {
			t.Fatalf("%v unbounded: %v", q, err)
		}
		maxLen := 0
		for _, p := range got.Paths() {
			maxLen = max(maxLen, p.Len())
		}
		full, err := Eval(g, nfa, core.Walk, core.Limits{MaxLen: maxLen})
		if err != nil {
			t.Fatalf("%v bounded reference (MaxLen %d): %v", q, maxLen, err)
		}
		if want := perPairPrefix(full, q); !testutil.SameSequence(got, want) {
			t.Errorf("%v: unbounded quota'd walk has %d paths, prefix of the MaxLen-%d walk %d", q, got.Len(), maxLen, want.Len())
		}
	}
}
