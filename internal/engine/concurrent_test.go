package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
)

// TestEngineConcurrentUse hammers ONE engine from many goroutines with a
// mix of Run, RunStream, Explain, Reach, Stats and Plan (plan-cache hits
// and misses), asserting under -race that the engine's concurrency contract
// holds and that every goroutine sees the same results as a private
// engine would. The query set is small on purpose: most Plan calls are
// cache hits, exercising the mutex-guarded LRU bump path concurrently.
func TestEngineConcurrentUse(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 20, Messages: 30, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 5,
	})
	lim := core.Limits{MaxLen: 4}
	queries := []string{
		`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ACYCLIC p = (?x)-[(:Knows|:Likes)+]->(?y)`,
		`MATCH ANY SHORTEST WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y)`,
		`MATCH SIMPLE p = (?x)-[:Knows+]->(?y)`,
	}
	// Reference results from a private engine.
	want := make([]int, len(queries))
	wantPairs := make([]int, len(queries))
	ref := New(g, Options{Limits: lim})
	for i, q := range queries {
		res, err := ref.Run(gql.MustCompile(q))
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		want[i] = res.Len()
		wantPairs[i] = reachFromSet(res, opt.ReachCountPairs).Count
	}

	shared := New(g, Options{Limits: lim, Parallelism: 2})
	// Warm the plan cache so the post-hammer miss count is deterministic
	// (concurrent first-misses of one query may each plan it — benign,
	// the cache converges — but it would make the assertion flaky).
	for _, q := range queries {
		shared.Plan(gql.MustCompile(q))
	}
	const workers = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (w + i) % len(queries)
				plan := gql.MustCompile(queries[qi])
				switch (w + i) % 4 {
				case 0: // batch run
					res, err := shared.Run(plan)
					if err != nil {
						errs <- fmt.Errorf("worker %d Run: %w", w, err)
						return
					}
					if res.Len() != want[qi] {
						errs <- fmt.Errorf("worker %d Run: %d paths, want %d", w, res.Len(), want[qi])
						return
					}
				case 1: // streaming run, paged to exhaustion
					s := shared.RunStream(context.Background(), plan, StreamOptions{ChunkSize: 16})
					total := 0
					for {
						chunk, err := s.Next()
						if err != nil {
							errs <- fmt.Errorf("worker %d RunStream: %w", w, err)
							return
						}
						if chunk == nil {
							break
						}
						total += chunk.Len()
					}
					if total != want[qi] {
						errs <- fmt.Errorf("worker %d RunStream: %d paths, want %d", w, total, want[qi])
						return
					}
				case 2: // plan-cache hit, stats snapshot, path-free answer
					shared.Plan(plan)
					_ = shared.Stats()
					res, err := shared.Reach(plan, opt.ReachCountPairs)
					if err != nil {
						errs <- fmt.Errorf("worker %d Reach: %w", w, err)
						return
					}
					if res.Count != wantPairs[qi] {
						errs <- fmt.Errorf("worker %d Reach: %d pairs, want %d", w, res.Count, wantPairs[qi])
						return
					}
				case 3: // explain (evaluates every subtree)
					ex, err := shared.Explain(context.Background(), plan)
					if err != nil {
						errs <- fmt.Errorf("worker %d Explain: %w", w, err)
						return
					}
					if ex.Result.Len() != want[qi] {
						errs <- fmt.Errorf("worker %d Explain: %d paths, want %d", w, ex.Result.Len(), want[qi])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The plan cache served every goroutine: all queries planned at most
	// once per distinct text (misses == distinct queries).
	st := shared.Stats()
	if st.PlanCacheMisses > int64(len(queries)) {
		t.Errorf("PlanCacheMisses = %d, want <= %d (one per distinct query)", st.PlanCacheMisses, len(queries))
	}
	if st.PlanCacheHits == 0 {
		t.Error("PlanCacheHits = 0, want > 0 under the hammer")
	}
}
