package automaton

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/rpq"
)

// goalTemplate is one all-pairs :Knows+ selector of the benchmark's
// selectors workload, as the search runs it: the semantics after
// planning (ANY SHORTEST and ALL SHORTEST WALK plan to ϕShortest) and
// the quota opt.Derive pushes for the selector.
type goalTemplate struct {
	name  string
	sem   core.Semantics
	quota core.Quota
}

var goalTemplates = func() []goalTemplate {
	selectors := []struct {
		name  string
		quota core.Quota
	}{
		{"ANY SHORTEST", core.Quota{K: 1}},
		{"ALL SHORTEST", core.Quota{K: 1, ByLength: true}},
		{"SHORTEST 2 GROUP", core.Quota{K: 2, ByLength: true}},
		{"ANY 2", core.Quota{K: 2}},
	}
	var out []goalTemplate
	for _, sem := range []core.Semantics{core.Walk, core.Trail, core.Acyclic} {
		for _, s := range selectors {
			t := goalTemplate{name: s.name + " " + sem.String(), sem: sem, quota: s.quota}
			if sem == core.Walk && s.name != "SHORTEST 2 GROUP" && s.name != "ANY 2" {
				t.sem = core.Shortest
			}
			out = append(out, t)
		}
	}
	return out
}()

// searchWork runs one all-pairs search under a trace and returns its
// search span's attributes.
func searchWork(t *testing.T, tc goalTemplate) map[string]int64 {
	t.Helper()
	g := ldbc.MustGenerate(ldbc.Config{Persons: 50, Messages: 100, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
	tr := obs.NewTrace()
	root := tr.Start("query")
	_, err := EvalWithOptions(g, Build(rpq.MustParse(":Knows+")), tc.sem, core.Limits{MaxLen: 7},
		EvalOptions{Ctx: obs.WithSpan(context.Background(), root), Quota: tc.quota})
	root.End()
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	for _, sp := range tr.Tree()[0].Children {
		if sp.Name == "search" {
			return sp.Attrs
		}
	}
	t.Fatalf("%s: no search span", tc.name)
	return nil
}

// TestGoalPrunedWork is the deterministic count gate of the goal table
// and the visited-set-free deterministic search, on the selectors
// workload's frozen graph (50 persons, seed 1) at MaxLen 7. The search
// runs on one goroutine, so work_charged is exact. Before either, the
// eight Trail/Acyclic templates charged 3,133,108 work units in all; with
// them, sweeps included, the total must stay at most 1.75M and each
// template must charge less than it did. Walk templates never arm the
// early stop, and a search's charges do not depend on whether it keeps a
// visited set, so the four Walk templates must charge exactly what they
// did.
func TestGoalPrunedWork(t *testing.T) {
	before := map[string]int64{
		"ANY SHORTEST Walk": 37484, "ALL SHORTEST Walk": 37484, "SHORTEST 2 GROUP Walk": 140038, "ANY 2 Walk": 50150,
		"ANY SHORTEST Trail": 186852, "ALL SHORTEST Trail": 362745, "SHORTEST 2 GROUP Trail": 773862, "ANY 2 Trail": 353686,
		"ANY SHORTEST Acyclic": 150983, "ALL SHORTEST Acyclic": 285383, "SHORTEST 2 GROUP Acyclic": 626321, "ANY 2 Acyclic": 393276,
	}
	var restricted int64
	for _, tc := range goalTemplates {
		a := searchWork(t, tc)
		work, was := a["work_charged"], before[tc.name]
		t.Logf("%-24s work=%d (was %d) goal_pruned=%d goal_sweeps=%d", tc.name, work, was, a["goal_pruned"], a["goal_sweeps"])
		if tc.sem != core.Trail && tc.sem != core.Acyclic {
			if work != was || a["goal_sweeps"] != 0 {
				t.Errorf("%s: work %d, sweeps %d; want exactly %d and none", tc.name, work, a["goal_sweeps"], was)
			}
			continue
		}
		restricted += work
		if work >= was || a["goal_sweeps"] == 0 || a["goal_pruned"] == 0 {
			t.Errorf("%s: work %d (was %d), goal_sweeps %d, goal_pruned %d; want less work and some of each",
				tc.name, work, was, a["goal_sweeps"], a["goal_pruned"])
		}
	}
	if restricted > 1_750_000 {
		t.Errorf("Trail/Acyclic templates charge %d work units in all, want at most 1,750,000 (3,133,108 before)", restricted)
	}
}

// TestCompiledNFAShape: Compile's reversed table lists, for each state
// and symbol, exactly the states that reach it by that symbol, ascending;
// and an automaton is deterministic exactly when no (state, symbol) has
// two targets — true of the benchmark's :Knows+ and union patterns.
func TestCompiledNFAShape(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 6, Messages: 4, KnowsPerPerson: 2, LikesPerPerson: 1, Seed: 1})
	rng := rand.New(rand.NewSource(17))
	exprs := []rpq.Expr{
		rpq.MustParse(":Knows+"),
		rpq.MustParse("(:Knows+)|(:Likes/:Has_creator)+"),
		rpq.MustParse("(:Knows|(:Knows/:Knows))+"),
		rpq.MustParse("(_/:Knows)+"),
	}
	for i := 0; i < 40; i++ {
		exprs = append(exprs, rpq.Plus{In: randExpr(rng, 3)})
	}
	for i, re := range exprs {
		c := Build(re).Compile(g)
		states := c.nfa.NumStates()
		deterministic := true
		for s := 0; s < states; s++ {
			for sym := 0; sym < c.numSyms; sym++ {
				ts := c.Trans(StateID(s), graph.SymbolID(sym))
				deterministic = deterministic && len(ts) <= 1
				for _, q := range ts {
					if !slices.Contains(c.rev.Trans(q, graph.SymbolID(sym)), StateID(s)) {
						t.Errorf("%s: %d reads %d to %d, reversed table misses it", re, s, sym, q)
					}
				}
			}
		}
		for q := 0; q < states; q++ {
			syms := c.rev.StateSymbols(StateID(q))
			for sym := 0; sym < c.numSyms; sym++ {
				from := c.rev.Trans(StateID(q), graph.SymbolID(sym))
				if !slices.IsSorted(from) || slices.Contains(syms, graph.SymbolID(sym)) != (len(from) > 0) {
					t.Errorf("%s: reversed (%d, %d) = %v, symbols %v", re, q, sym, from, syms)
				}
				for _, s := range from {
					if !slices.Contains(c.Trans(s, graph.SymbolID(sym)), StateID(q)) {
						t.Errorf("%s: reversed table has %d reading %d to %d, the table does not", re, s, sym, q)
					}
				}
			}
		}
		if c.deterministic != deterministic {
			t.Errorf("%s: deterministic = %v, want %v", re, c.deterministic, deterministic)
		}
		if i < 2 && !c.deterministic {
			t.Errorf("%s: want deterministic", re)
		}
	}
}
