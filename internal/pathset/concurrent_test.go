package pathset_test

import (
	"sync"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// TestLazyIndexConcurrent: a set nobody adds to is probed by eight
// goroutines at once before anything has built its index — as when the
// result cache pages one set to several readers. They race to build it,
// one build is published, and every probe answers right. Run under -race;
// the sets come from the shard merge and from the engine's selector node.
func TestLazyIndexConcurrent(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 20, Messages: 20, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 5})
	e := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: 4}})
	run := func(q string) *pathset.Set {
		parsed, err := gql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gql.Compile(parsed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	selected := run("MATCH SHORTEST 2 GROUP TRAIL p = (?x)-[:Knows+]->(?y)")
	all := run("MATCH TRAIL p = (?x)-[:Knows+]->(?y)")
	// Every source; the one-group "merge" takes each in two pieces.
	ps := all.Paths()
	half := len(ps) / 2
	for name, mk := range map[string]func() *pathset.Set{
		"merge":    func() *pathset.Set { return pathset.FromOrderedDisjoint([][]path.Path{ps[:half], ps[half:]}) },
		"selector": func() *pathset.Set { return run("MATCH SHORTEST 2 GROUP TRAIL p = (?x)-[:Knows+]->(?y)") },
	} {
		s, twin := mk(), mk()
		if s.Len() == 0 {
			t.Fatalf("%s: empty set", name)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w%2 == 0 && (!s.Equal(twin) || !twin.Equal(s)) {
					errs <- "Equal of two builds of one set is false"
				}
				for i, p := range s.Paths() {
					if (i+w)%3 == 0 && !s.Contains(p) {
						errs <- "Contains misses a member"
						return
					}
				}
				// Knows+ returns no length-zero path.
				if s.Contains(path.FromNode(graph.NodeID(w))) {
					errs <- "Contains finds a non-member"
				}
				for _, p := range selected.Paths() {
					if !s.Contains(p) || !all.Contains(p) {
						errs <- "Contains misses a selected path"
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Errorf("%s: %s", name, msg)
		}
	}
}
