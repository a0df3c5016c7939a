package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// Budget is the shared, race-safe evaluation budget derived from Limits.
// It replaces the ad-hoc per-evaluator path/work counters so that the
// engine, the reference operators and the automaton search all account
// identically; it is race-safe because a Watch-attached context cancels
// it from another goroutine.
//
// Accounting scheme (unchanged from the historical counters):
//
//   - every admitted result path of edge length n charges 1 path and
//     n+1 work units (its node slots) — ChargePath;
//   - every additionally materialized search state charges n+1 work units
//     — ChargeWork. That covers the visited marks of the BFS product
//     search (which answers Shortest semantics too, as Walk under a
//     one-length quota) and the product states its quota early-stop sweep
//     discovers, so MaxWork bounds every semantics.
//
// Both charges are atomic adds, and the first charge past a limit fails,
// so an evaluation stops exactly at the limit.
//
// The budget is also the cancellation point of an evaluation: Cancel (or a
// Watch-attached context) makes every subsequent charge fail, so the
// evaluation aborts at its next charge. Cancellation
// costs the charge hot path nothing: Cancel stores math.MinInt64 into the
// (atomic) limit fields, so the limit comparison every charge already
// performs doubles as the cancel check — the instruction count of
// ChargePath/ChargeWork is identical to the cancellation-free budget
// (an atomic int64 load is a plain MOV on amd64/arm64).
type Budget struct {
	// cancel holds the cancellation cause once Cancel ran; nil while the
	// evaluation may proceed. The first cause wins. It leads the struct,
	// padded away from the write-hot counters: it is read-only until
	// cancellation, so the evaluators' between-charges polls (Cancelled)
	// read a quiet shared cache line instead of the counters' ping-pong.
	cancel atomic.Pointer[error]
	_      [56]byte
	// maxPaths/maxWork are the effective limits: set at construction,
	// dropped to math.MinInt64 by Cancel.
	maxPaths atomic.Int64
	maxWork  atomic.Int64
	paths    atomic.Int64
	work     atomic.Int64
}

// NewBudget returns a fresh budget enforcing lim, with the usual defaults
// applied (DefaultMaxPaths / DefaultMaxWork for unset fields).
func NewBudget(lim Limits) *Budget {
	b := &Budget{}
	b.maxPaths.Store(int64(lim.maxPaths()))
	b.maxWork.Store(int64(lim.maxWork()))
	return b
}

// ChargePath accounts one admitted result path of edge length n and
// reports whether the budget still holds and the evaluation is not
// cancelled.
//
//pathalgebra:hotpath
func (b *Budget) ChargePath(n int) bool {
	p := b.paths.Add(1)
	w := b.work.Add(int64(n) + 1)
	return p <= b.maxPaths.Load() && w <= b.maxWork.Load()
}

// ChargeWork accounts the materialization of one auxiliary search state of
// edge length n (n+1 node slots) and reports whether the work budget still
// holds and the evaluation is not cancelled.
//
//pathalgebra:hotpath
func (b *Budget) ChargeWork(n int) bool {
	return b.work.Add(int64(n)+1) <= b.maxWork.Load()
}

// Cancel aborts the evaluation charging this budget: every subsequent
// charge fails and Err reports cause. A nil cause records
// context.Canceled. The first recorded cause wins; later calls are no-ops.
func (b *Budget) Cancel(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	if b.cancel.CompareAndSwap(nil, &cause) {
		// Sink the limits so every in-flight and future charge fails at
		// its ordinary limit comparison. Counters only grow, so no later
		// charge can sneak back under MinInt64.
		b.maxPaths.Store(minInt64)
		b.maxWork.Store(minInt64)
	}
}

// minInt64 spelled out to avoid importing math for one constant.
const minInt64 = -1 << 63

// Cancelled reports whether Cancel ran. Evaluator inner loops may poll it
// between charges (one atomic load) to abort promptly even while doing
// work that charges nothing.
//
//pathalgebra:hotpath
func (b *Budget) Cancelled() bool { return b.cancel.Load() != nil }

// Err returns the error a failed charge stands for: the cancellation cause
// if the budget was cancelled, ErrBudgetExceeded if a limit was crossed,
// and nil while the budget still holds. Evaluators call it after a charge
// returns false, so the server can tell budget exhaustion from
// cancellation with errors.Is.
func (b *Budget) Err() error {
	if cause := b.cancel.Load(); cause != nil {
		return *cause
	}
	if b.paths.Load() > b.maxPaths.Load() || b.work.Load() > b.maxWork.Load() {
		return ErrBudgetExceeded
	}
	return nil
}

// Watch cancels the budget when ctx is cancelled, with context.Cause(ctx)
// as the recorded cause. It returns a stop function the evaluation MUST
// call (typically via defer) to release the watcher goroutine; stop is
// idempotent. A context that can never be cancelled attaches no goroutine
// and returns a no-op stop, so context-free evaluation pays nothing.
func (b *Budget) Watch(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if err := context.Cause(ctx); err != nil {
		b.Cancel(err)
		return func() {}
	}
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// Re-check stop: when both channels are ready, select picks
			// randomly, and a stopped watcher must not cancel the budget.
			select {
			case <-stopped:
			default:
				b.Cancel(context.Cause(ctx))
			}
		case <-stopped:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stopped) }) }
}

// Paths returns the number of result paths charged so far.
func (b *Budget) Paths() int64 { return b.paths.Load() }

// Work returns the number of node slots charged so far.
func (b *Budget) Work() int64 { return b.work.Load() }
