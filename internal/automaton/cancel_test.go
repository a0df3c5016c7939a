package automaton_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/rpq"
	"pathalgebra/internal/testutil"
)

// cancelGraph is dense and cyclic enough that an unbounded-ish Walk
// search runs for a long time — long enough that a cancellation
// mid-flight is guaranteed to land inside the product search.
func cancelGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return ldbc.MustGenerate(ldbc.Config{
		Persons: 300, Messages: 300, KnowsPerPerson: 4, LikesPerPerson: 3,
		CycleFraction: 0.5, Seed: 7,
	})
}

// TestEvalCancellation: cancelling the context mid-evaluation aborts the
// search promptly — EvalWithOptions returns within 100ms of the
// cancellation — and the error is errors.Is context.Canceled, not the
// budget sentinel.
func TestEvalCancellation(t *testing.T) {
	g := cancelGraph(t)
	nfa := automaton.Build(rpq.MustParse("(:Knows|:Likes)+"))
	// A generous budget so only the cancellation can stop the walk.
	lim := core.Limits{MaxLen: 40, MaxPaths: 1 << 30, MaxWork: 1 << 40}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := automaton.EvalWithOptions(g, nfa, core.Walk, lim, automaton.EvalOptions{Ctx: ctx})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the search get going
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if since := time.Since(cancelled); since > 100*time.Millisecond {
			t.Errorf("returned %v after cancellation, want < 100ms", since)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if errors.Is(err, core.ErrBudgetExceeded) {
			t.Error("cancellation reported as budget exhaustion")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("evaluation did not return within 5s of cancellation (started %v ago)", time.Since(start))
	}
}

// TestEvalDeadline: a context deadline surfaces as
// context.DeadlineExceeded through the same path.
func TestEvalDeadline(t *testing.T) {
	g := cancelGraph(t)
	nfa := automaton.Build(rpq.MustParse("(:Knows|:Likes)+"))
	lim := core.Limits{MaxLen: 40, MaxPaths: 1 << 30, MaxWork: 1 << 40}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := automaton.EvalWithOptions(g, nfa, core.Walk, lim, automaton.EvalOptions{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEvalShortestCancellation: a Shortest evaluation without MaxLen — the
// Walk search under a one-length quota — aborts on cancellation too.
func TestEvalShortestCancellation(t *testing.T) {
	g := cancelGraph(t)
	nfa := automaton.Build(rpq.MustParse("(:Knows|:Likes)+"))
	lim := core.Limits{MaxPaths: 1 << 30, MaxWork: 1 << 40}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := automaton.EvalWithOptions(g, nfa, core.Shortest, lim, automaton.EvalOptions{Ctx: ctx})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		// The shortest evaluation may legitimately finish before the
		// cancellation lands; only a cancellation observed must be typed.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want nil or context.Canceled", err)
		}
		if err != nil {
			if since := time.Since(cancelled); since > 100*time.Millisecond {
				t.Errorf("returned %v after cancellation, want < 100ms", since)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shortest evaluation did not return within 5s of cancellation")
	}
}

// TestEvalUncancelledUnchanged: passing a cancellable context that never
// fires yields exactly the context-free result.
func TestEvalUncancelledUnchanged(t *testing.T) {
	g := ldbc.Figure1()
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	lim := core.Limits{MaxLen: 6}
	want, err := automaton.Eval(g, nfa, core.Trail, lim)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := automaton.EvalWithOptions(g, nfa, core.Trail, lim, automaton.EvalOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.SameSequence(want, got) {
		t.Error("context-threaded evaluation differs from the context-free result")
	}
}
