package core

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrInternal is the sentinel for failures that are the engine's fault
// rather than the query's: a panic recovered inside an evaluation, a
// handler, or a background loop. Callers branch with
// errors.Is(err, core.ErrInternal); the query service maps it to HTTP
// 500 with kind "internal". The contract it backs: one poisoned query
// returns a typed error — it never kills the process, never wedges the
// engine, and never leaks the budget state its evaluation held (that
// releases as the error unwinds the non-panicking frames normally).
var ErrInternal = errors.New("core: internal error")

// PanicError is a recovered panic promoted to a typed error: the panic
// value plus the stack of the panicking goroutine, captured at the
// recovery site.
type PanicError struct {
	// Val is the value passed to panic.
	Val any
	// Stack is the panicking goroutine's stack at recovery
	// (debug.Stack), for the daemon log — never for clients.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: recovered panic: %v", e.Val)
}

// Is makes every recovered panic errors.Is-able as ErrInternal.
func (e *PanicError) Is(target error) bool { return target == ErrInternal }

// Unwrap exposes a panic value that was itself an error (e.g. an
// injected fault.Error), so errors.Is sees through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Val.(error); ok {
		return err
	}
	return nil
}

// Recovered converts a recover() result into a *PanicError, capturing
// the stack; nil in, nil out, so the caller can write
//
//	defer func() { err = core.Recovered(recover()) }()
//
// without an if. The stack is captured here — inside the deferred call
// on the panicking goroutine — so it shows the panic site, not the
// recovery plumbing alone.
func Recovered(v any) error {
	if v == nil {
		return nil
	}
	return &PanicError{Val: v, Stack: debug.Stack()}
}
