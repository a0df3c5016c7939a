package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/rpq"
)

func compileQuery(q string) (core.PathExpr, error) {
	parsed, err := gql.Parse(q)
	if err != nil {
		return nil, err
	}
	return gql.Compile(parsed)
}

func optimizePlan(p core.PathExpr) core.PathExpr { return opt.Optimize(p).Plan }

// randPattern generates a random +-free regular expression over the SNB
// labels; wrapped in Plus by the caller so the recursion spans the whole
// pattern and all evaluators share one semantics.
func randPattern(rng *rand.Rand, depth int) rpq.Expr {
	labels := []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator}
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(6) == 0 {
			return rpq.AnyLabel{}
		}
		return rpq.Label{Name: labels[rng.Intn(len(labels))]}
	}
	l := randPattern(rng, depth-1)
	r := randPattern(rng, depth-1)
	if rng.Intn(2) == 0 {
		return rpq.Concat{L: l, R: r}
	}
	return rpq.Alt{L: l, R: r}
}

// TestDifferentialRandom cross-checks three independent evaluation routes
// — the expansion fast path, the generic closure over a materialized base
// set (core.EvalExpr), and the automaton product search — on random
// graphs and random recursive patterns under every semantics.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		cfg := ldbc.Config{
			Persons:        4 + rng.Intn(10),
			Messages:       rng.Intn(8),
			KnowsPerPerson: 1 + rng.Intn(3),
			LikesPerPerson: rng.Intn(3),
			CycleFraction:  float64(rng.Intn(11)) / 10,
			Seed:           rng.Int63(),
		}
		g := ldbc.MustGenerate(cfg)
		pattern := rpq.Plus{In: randPattern(rng, 2)}
		nfa := automaton.Build(pattern)
		lim := core.Limits{MaxLen: 4}

		for _, sem := range core.AllSemantics() {
			name := fmt.Sprintf("trial%d/%s/%s", trial, pattern, sem)
			plan := rpq.Compile(pattern, sem)

			fast := New(g, Options{Limits: lim})
			a, err := fast.EvalPaths(plan)
			if err != nil {
				t.Fatalf("%s fast: %v", name, err)
			}
			b, err := core.EvalExpr(g, plan, lim)
			if err != nil {
				t.Fatalf("%s generic: %v", name, err)
			}
			c, err := automaton.Eval(g, nfa, sem, lim)
			if err != nil {
				t.Fatalf("%s automaton: %v", name, err)
			}
			if !a.Equal(b) {
				t.Errorf("%s: fast %d vs generic %d paths", name, a.Len(), b.Len())
			}
			if !a.Equal(c) {
				t.Errorf("%s: engine %d vs automaton %d paths", name, a.Len(), c.Len())
			}
		}
	}
}

// TestDifferentialOptimizer: on random graphs, optimized plans and
// unoptimized plans agree for a battery of random label queries.
func TestDifferentialOptimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	templates := []string{
		`MATCH TRAIL p = (?x)-[%s]->(?y)`,
		`MATCH ACYCLIC p = (?x)-[%s]->(?y) WHERE first.name != "nobody"`,
		`MATCH ANY SHORTEST TRAIL p = (?x)-[%s+]->(?y)`,
		`MATCH ALL SHORTEST SIMPLE p = (?x)-[%s+]->(?y)`,
		`MATCH SHORTEST 2 ACYCLIC p = (?x)-[%s+]->(?y)`,
	}
	labels := []string{":Knows", ":Likes", ":Knows|:Likes", ":Likes/:Has_creator"}
	for trial := 0; trial < 8; trial++ {
		g := ldbc.MustGenerate(ldbc.Config{
			Persons:        5 + rng.Intn(8),
			Messages:       rng.Intn(6),
			KnowsPerPerson: 1 + rng.Intn(2),
			LikesPerPerson: 1,
			CycleFraction:  0.5,
			Seed:           rng.Int63(),
		})
		for _, tmpl := range templates {
			for _, lbl := range labels {
				query := fmt.Sprintf(tmpl, lbl)
				plan, err := compileQuery(query)
				if err != nil {
					t.Fatalf("%s: %v", query, err)
				}
				lim := core.Limits{MaxLen: 4}
				want, err := New(g, Options{Limits: lim}).EvalPaths(plan)
				if err != nil {
					t.Fatalf("%s unoptimized: %v", query, err)
				}
				optimized := optimizePlan(plan)
				got, err := New(g, Options{Limits: lim}).EvalPaths(optimized)
				if err != nil {
					t.Fatalf("%s optimized: %v", query, err)
				}
				if !got.Equal(want) {
					t.Errorf("trial %d %s: optimizer changed the answer (%d vs %d paths)",
						trial, query, got.Len(), want.Len())
				}
			}
		}
	}
}
