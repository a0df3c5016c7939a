package automaton_test

import (
	"errors"
	"testing"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/rpq"
	"pathalgebra/internal/testutil"
)

// TestEvalPanicIsolation: a panic inside the search surfaces as a typed
// core.ErrInternal from the evaluation — it does not unwind the caller's
// goroutine. A subsequent (un-faulted) evaluation over the same inputs is
// byte-identical to a never-faulted run: nothing shared was poisoned.
func TestEvalPanicIsolation(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 16, KnowsPerPerson: 2, CycleFraction: 0.3, Seed: 7,
	})
	nfa := automaton.Build(rpq.MustParse(":Knows+"))
	lim := core.Limits{MaxLen: 4}

	want, err := automaton.Eval(g, nfa, core.Trail, lim)
	if err != nil {
		t.Fatal(err)
	}

	restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{
		{Site: "automaton.source", Mode: fault.ModePanic, Nth: 2},
	}})
	_, err = automaton.Eval(g, nfa, core.Trail, lim)
	restore()
	if !errors.Is(err, core.ErrInternal) {
		t.Fatalf("got %v, want core.ErrInternal", err)
	}
	// PanicError.Unwrap exposes error panic values: the injected fault
	// stays errors.Is-able through the recovery.
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("%v does not unwrap to the injected fault", err)
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("%v carries no stack", err)
	}

	// The same evaluation, un-faulted, still produces the exact result.
	got, err := automaton.Eval(g, nfa, core.Trail, lim)
	if err != nil {
		t.Fatalf("after panic: %v", err)
	}
	if !testutil.SameSequence(want, got) {
		t.Error("post-panic evaluation diverges from the never-faulted one")
	}
}
