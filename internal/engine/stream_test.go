package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pathalgebra/internal/core"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// streamGraph is large enough that every semantics produces multiple
// chunks at small chunk sizes.
func streamGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return ldbc.MustGenerate(ldbc.Config{
		Persons: 30, Messages: 40, KnowsPerPerson: 2, LikesPerPerson: 2,
		CycleFraction: 0.3, Seed: 23,
	})
}

// TestRunStreamMatchesRun: for all five semantics and several chunk
// sizes, the concatenation of RunStream's chunks is byte-identical (same
// paths, same order) to Engine.Run's result.
func TestRunStreamMatchesRun(t *testing.T) {
	g := streamGraph(t)
	queries := map[string]string{
		"Walk":     `MATCH WALK p = (?x)-[:Knows+]->(?y)`,
		"Trail":    `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`,
		"Acyclic":  `MATCH ACYCLIC p = (?x)-[(:Knows|:Likes)+]->(?y)`,
		"Simple":   `MATCH SIMPLE p = (?x)-[:Knows+]->(?y)`,
		"Shortest": `MATCH ANY SHORTEST WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y)`,
	}
	lim := core.Limits{MaxLen: 5}
	for sem, q := range queries {
		plan := gql.MustCompile(q)
		eng := New(g, Options{Limits: lim})
		want, err := eng.Run(plan)
		if err != nil {
			t.Fatalf("%s: Run: %v", sem, err)
		}
		for _, chunkSize := range []int{1, 7, 64, 100000} {
			name := fmt.Sprintf("%s/chunk%d", sem, chunkSize)
			s := eng.RunStream(context.Background(), plan, StreamOptions{ChunkSize: chunkSize})
			got := 0
			for {
				chunk, err := s.Next()
				if err != nil {
					t.Fatalf("%s: Next: %v", name, err)
				}
				if chunk == nil {
					break
				}
				if len(chunk) == 0 || len(chunk) > chunkSize {
					t.Fatalf("%s: chunk of %d paths, want 1..%d", name, len(chunk), chunkSize)
				}
				// Byte-identical concatenation: chunk i continues exactly
				// where chunk i-1 stopped, in Run's insertion order.
				for j, p := range chunk {
					if !p.Equal(want.At(got + j)) {
						t.Fatalf("%s: path %d differs from Run's", name, got+j)
					}
				}
				got += len(chunk)
			}
			if got != want.Len() {
				t.Fatalf("%s: streamed %d paths, Run produced %d", name, got, want.Len())
			}
			if s.Len() != want.Len() || s.Pos() != want.Len() {
				t.Fatalf("%s: Len/Pos = %d/%d, want %d", name, s.Len(), s.Pos(), want.Len())
			}
		}
	}
}

// TestRunStreamCancel: cancelling a stream mid-evaluation makes Next
// return context.Canceled within 100ms.
func TestRunStreamCancel(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 300, Messages: 300, KnowsPerPerson: 4, LikesPerPerson: 3,
		CycleFraction: 0.5, Seed: 7,
	})
	eng := New(g, Options{Limits: core.Limits{MaxLen: 40, MaxPaths: 1 << 30, MaxWork: 1 << 40}})
	plan := gql.MustCompile(`MATCH WALK p = (?x)-[(:Knows|:Likes)+]->(?y)`)
	s := eng.RunStream(context.Background(), plan, StreamOptions{})
	time.Sleep(30 * time.Millisecond)
	cancelled := time.Now()
	s.Cancel()
	_, err := s.Next()
	if since := time.Since(cancelled); since > 100*time.Millisecond {
		t.Errorf("Next returned %v after Cancel, want < 100ms", since)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Next err = %v, want context.Canceled", err)
	}
	// A failed stream stays failed: every later call returns the error.
	if _, err2 := s.Next(); !errors.Is(err2, context.Canceled) {
		t.Errorf("second Next err = %v, want context.Canceled", err2)
	}
}

// TestRunStreamDeadline: a deadline on the stream context surfaces as
// context.DeadlineExceeded.
func TestRunStreamDeadline(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 300, Messages: 300, KnowsPerPerson: 4, LikesPerPerson: 3,
		CycleFraction: 0.5, Seed: 7,
	})
	eng := New(g, Options{Limits: core.Limits{MaxLen: 40, MaxPaths: 1 << 30, MaxWork: 1 << 40}})
	plan := gql.MustCompile(`MATCH WALK p = (?x)-[(:Knows|:Likes)+]->(?y)`)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s := eng.RunStream(ctx, plan, StreamOptions{})
	defer s.Cancel()
	if _, err := s.Next(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Next err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunStreamBudget: budget exhaustion stays typed through the stream.
func TestRunStreamBudget(t *testing.T) {
	g := ldbc.Figure1()
	eng := New(g, Options{Limits: core.Limits{MaxPaths: 2}})
	plan := gql.MustCompile(`MATCH WALK p = (?x)-[:Knows+]->(?y)`)
	s := eng.RunStream(context.Background(), plan, StreamOptions{})
	defer s.Cancel()
	if _, err := s.Next(); !errors.Is(err, core.ErrBudgetExceeded) {
		t.Errorf("Next err = %v, want core.ErrBudgetExceeded", err)
	}
}

// TestStreamOf: a pre-materialized set pages like a live stream.
func TestStreamOf(t *testing.T) {
	g := ldbc.Figure1()
	eng := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	want, err := eng.Run(gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`))
	if err != nil {
		t.Fatal(err)
	}
	s := StreamOf(g, want, 3)
	got := 0
	for {
		chunk, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		got += len(chunk)
	}
	if got != want.Len() {
		t.Errorf("StreamOf delivered %d paths, want %d", got, want.Len())
	}
}

// TestRunCtxCancelledBeforeStart: an already-cancelled context returns
// immediately with the typed cause and no partial work.
func TestRunCtxCancelledBeforeStart(t *testing.T) {
	g := ldbc.Figure1()
	eng := New(g, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.RunCtx(ctx, gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx err = %v, want context.Canceled", err)
	}
}
