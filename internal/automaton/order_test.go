package automaton

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
	"pathalgebra/internal/testutil"
)

// TestSearchOrderIsGlobalBFS pins the order the selectors observe: a
// search over every source returns the single-seed results interleaved
// by (length, seed) — the insertion order of one breadth-first search
// over all sources, whose level is a path's length. It holds forward and
// backward, for a deterministic and a nondeterministic automaton, under
// every semantics, with no quota, a path quota and a length quota (a
// quota is per seed and target, so it cuts each seed's part alone).
func TestSearchOrderIsGlobalBFS(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 10, Messages: 6, KnowsPerPerson: 3, LikesPerPerson: 1,
		CycleFraction: 0.6, Seed: 7})
	lim := core.Limits{MaxLen: 4}
	quotas := []core.Quota{{}, {K: 2}, {K: 2, ByLength: true}}
	checked := 0
	for _, pc := range []struct {
		pattern       string
		deterministic bool
	}{{":Knows+", true}, {"(:Knows|(:Knows/:Knows))+", false}} {
		re := rpq.MustParse(pc.pattern)
		nfas := map[core.Direction]*NFA{core.Forward: Build(re), core.Backward: Build(rpq.Reverse(re))}
		if got := nfas[core.Forward].Compile(g).deterministic; got != pc.deterministic {
			t.Fatalf("%s: deterministic = %v, want %v", pc.pattern, got, pc.deterministic)
		}
		for dir, nfa := range nfas {
			for _, sem := range core.AllSemantics() {
				for _, q := range quotas {
					name := fmt.Sprintf("%s/%s/%s/%v", pc.pattern, dir, sem, q)
					o := EvalOptions{Dir: dir, Quota: q}
					got, err := EvalWithOptions(g, nfa, sem, lim, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var want []path.Path
					for n := 0; n < g.NumNodes(); n++ {
						o.Seeds = []graph.NodeID{graph.NodeID(n)}
						one, err := EvalWithOptions(g, nfa, sem, lim, o)
						if err != nil {
							t.Fatalf("%s seed %d: %v", name, n, err)
						}
						want = append(want, one.Paths()...)
					}
					slices.SortStableFunc(want, func(a, b path.Path) int { return cmp.Compare(a.Len(), b.Len()) })
					if !testutil.SameSequence(got, pathset.FromDistinct(want)) {
						t.Fatalf("%s: %d paths, the (length, seed) interleaving of the single-seed results has %d (or another order)",
							name, got.Len(), len(want))
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d searches equal the (length, seed) interleaving of their single-seed results", checked)
}
