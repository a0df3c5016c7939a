// Package engine executes path algebra plans (internal/core expression
// trees) against a property graph. It is the optimized counterpart of the
// reference operator implementations in internal/core: joins use endpoint
// hashing instead of nested loops, label-equality selections over the
// Edges/Nodes atoms use the graph's label indexes, selections over
// pattern recursions seed a directed product search, selector pipelines
// (π over τ over γ) push the number of paths they keep per endpoint pair
// into that search, and every evaluation runs under an explicit recursion
// budget. Engine.Run plans
// through the cost-based planner (internal/opt) and an LRU plan cache;
// Engine.Explain reports the chosen plan with estimated vs. actual
// per-operator cardinalities. The randomized differential harness
// cross-checks every route against the reference implementations.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
)

// JoinStrategy selects the physical join operator.
type JoinStrategy uint8

const (
	// HashJoin builds a hash index on First(p2) and probes with Last(p1).
	HashJoin JoinStrategy = iota
	// NestedLoop compares every pair, as in Definition 3.1. Mainly useful
	// as a baseline for the join-strategy ablation benchmark.
	NestedLoop
)

// String names the strategy.
func (s JoinStrategy) String() string {
	switch s {
	case HashJoin:
		return "hash"
	case NestedLoop:
		return "nested-loop"
	default:
		return fmt.Sprintf("JoinStrategy(%d)", uint8(s))
	}
}

// Options configures an Engine.
type Options struct {
	// Limits bounds every recursive operator evaluation. The zero value
	// applies core.DefaultMaxPaths as a safety net.
	Limits core.Limits
	// Join selects the physical join operator (default HashJoin).
	Join JoinStrategy
	// DisableLabelIndex turns off the label-index shortcut for selections
	// of the form σ[label(edge(1)) = L](Edges(G)); used by ablation
	// benchmarks.
	DisableLabelIndex bool
	// DisableExpand turns off the graph-expansion fast path for
	// recursions over single-label bases (ϕ over σ[label]Edges), which
	// otherwise evaluates via product search on the adjacency lists
	// instead of materializing the base set first; used by ablation
	// benchmarks.
	DisableExpand bool
	// Parallelism is the number of worker goroutines used by the
	// parallelizable physical operators: the automaton product search
	// (sharded by source node) and the hash-join build side. Results are
	// byte-identical for every value — shards merge in the sequential
	// order and budgets are shared globally. <= 0 selects
	// runtime.GOMAXPROCS(0); 1 forces single-threaded evaluation.
	Parallelism int
	// DisablePlanner makes Plan/Run fall back to the statistics-free
	// heuristic optimizer (opt.Optimize): no cost-based join
	// re-association, no backward evaluation, no estimate gating. Used as
	// the baseline of the differential harness and ablation benchmarks.
	// The plan cache stays on either way.
	DisablePlanner bool
	// PlanCacheSize bounds the engine's LRU plan cache (number of
	// plans); <= 0 selects defaultPlanCacheSize.
	PlanCacheSize int
}

// defaultPlanCacheSize is the plan-cache capacity when unset.
const defaultPlanCacheSize = 64

func (o Options) planCacheSize() int {
	if o.PlanCacheSize <= 0 {
		return defaultPlanCacheSize
	}
	return o.PlanCacheSize
}

// parallelism resolves the configured worker count.
func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// Stats accumulates execution counters across one engine's evaluations.
// The engine updates the underlying counters with atomic adds — today all
// writes happen on the evaluating goroutine (parallel operators report
// through their return values, and the hash-join probe count is batched on
// the caller), so the atomics are a guardrail for future operators that
// do account from workers. Stats values returned by Engine.Stats are
// plain snapshots.
type Stats struct {
	// PathsProduced counts paths emitted by all operators.
	PathsProduced int64
	// JoinProbes counts path pair comparisons (nested loop) or hash
	// probes (hash join).
	JoinProbes int64
	// IndexedScans counts selections answered from a label index.
	IndexedScans int64
	// Recursions counts recursive operator evaluations.
	Recursions int64
	// ExpandedRecursions counts recursions answered by the graph-
	// expansion fast path rather than generic closure over a
	// materialized base set.
	ExpandedRecursions int64
	// SeededRecursions counts product searches seeded from an endpoint
	// condition's node set instead of every node (σ over a pattern
	// recursion).
	SeededRecursions int64
	// BackwardRecursions counts product searches the planner ran
	// backward (reversed automaton over the in-adjacency).
	BackwardRecursions int64
	// QuotaRecursions counts product searches that ran under a selector
	// quota pushed down from the projection above them
	// (opt.AnalyzeQuota).
	QuotaRecursions int64
	// ReachKernelRuns counts Reach calls answered by the bitset
	// reachability kernel; ReachFallbacks counts Reach calls that
	// enumerated instead (ineligible plan or infeasible bitset index).
	ReachKernelRuns int64
	ReachFallbacks  int64
	// PlanCacheHits / PlanCacheMisses count Plan calls answered from /
	// added to the LRU plan cache.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// BudgetExhaustions counts evaluations that ended in
	// core.ErrBudgetExceeded. It is charged exactly once per public
	// entry point (Run/RunStream/Explain/Reach and the Eval* family),
	// never per operator — budget errors propagate through the operator
	// tree and would otherwise multi-count.
	BudgetExhaustions int64
	// FingerprintCollisions counts activations of the exact-equality
	// fallback in fingerprint-bucketed path sets during this engine's
	// evaluations — both materialized sets (pathset.Collisions) and the
	// product search's arena-resident visited sets (path.ArenaCollisions).
	// It is measured as the process-wide counter delta, so concurrent
	// engines see each other's collisions. Nonzero values are harmless —
	// the fallback preserves exactness — but should be vanishingly rare.
	FingerprintCollisions int64
}

// fingerprintCollisions sums the process-wide collision counters of the
// two fingerprint-bucketed path-identity structures.
func fingerprintCollisions() int64 {
	return pathset.Collisions() + path.ArenaCollisions()
}

// Engine evaluates plans against one graph. An Engine is safe for
// concurrent use: evaluation state is per-call, the stats counters are
// atomic, and the plan cache is mutex-guarded — one engine can serve
// Run/RunStream/Explain/Stats from many goroutines at once (the query
// service layer does exactly that). ResetStats is the one exception: it
// snapshots non-atomically and should only run while no evaluation is in
// flight. The engine's own internal parallelism (Options.Parallelism) is
// independently race-safe: evaluation budgets are shared atomically
// across workers and worker results merge before stats are counted.
type Engine struct {
	g    *graph.Graph
	opts Options
	// store, when non-nil, makes this a live engine: every public entry
	// point pins the store's current epoch and evaluates a bound copy of
	// the engine against that epoch's immutable graph and statistics. A
	// static engine (store == nil) evaluates e.g directly, exactly as
	// before the live-graph layer existed.
	store *graph.Store
	// epoch is the pinned epoch of a bound copy (and the cache key its
	// Plan calls use); always 0 on a static engine.
	epoch uint64
	// stats is shared by pointer so bound copies account into the same
	// counters.
	stats *Stats
	// collisionBase is the fingerprintCollisions reading at construction
	// (or last ResetStats); Stats reports the delta since then.
	collisionBase int64
	// cm is the cost model over the pinned epoch's statistics; it drives
	// Plan (unless DisablePlanner) and the -explain estimates.
	cm *opt.CostModel
	// plans is the LRU plan cache consulted by Plan, keyed by
	// (epoch, plan); shared across bound copies.
	plans *planCache
}

// New returns a static engine over g with the given options.
func New(g *graph.Graph, opts Options) *Engine {
	return &Engine{
		g:             g,
		opts:          opts,
		stats:         &Stats{},
		collisionBase: fingerprintCollisions(),
		cm:            &opt.CostModel{Stats: g.Stats(), Limits: opts.Limits},
		plans:         newPlanCache(opts.planCacheSize()),
	}
}

// NewWithStore returns a live engine over a store: every Run, RunStream,
// Explain and Plan pins the store's current epoch for its own duration
// (RunStream until Stream.Close), so each call sees one consistent graph
// no matter how many batches apply concurrently, and plans are cached and
// costed per epoch.
func NewWithStore(s *graph.Store, opts Options) *Engine {
	e := New(s.Graph(), opts)
	e.store = s
	return e
}

// releaseNoop is the free release returned by pin on static engines.
func releaseNoop() {}

// pin returns the engine to evaluate against and a release function. A
// static engine returns itself; a live engine snapshots the store and
// returns a bound shallow copy — same options, shared stats and plan
// cache, but graph, epoch and cost model fixed to the pinned snapshot.
// The bound copy's store field is nil, so nested public calls made on it
// do not re-pin.
func (e *Engine) pin() (*Engine, func()) {
	if e.store == nil {
		return e, releaseNoop
	}
	sn := e.store.Snapshot()
	b := *e
	b.store = nil
	b.g = sn.Graph()
	b.epoch = sn.Epoch()
	b.cm = &opt.CostModel{Stats: b.g.Stats(), Limits: e.opts.Limits}
	return &b, sn.Release
}

// CostModel returns the engine's cost model (the graph's build-time
// statistics plus the engine's limits).
func (e *Engine) CostModel() *opt.CostModel { return e.cm }

// Plan turns a logical plan into the physical plan the engine will
// evaluate, consulting the LRU plan cache first. Cache misses run the
// cost-based planner (opt.Plan) — or the statistics-free opt.Optimize
// when DisablePlanner is set — and memoize the result under the
// normalized fingerprint of the input plan's canonical rendering.
func (e *Engine) Plan(x core.PathExpr) (core.PathExpr, []string) {
	b, release := e.pin()
	defer release()
	return b.plan(x)
}

// plan is Plan on an already-bound engine: the cache key includes the
// pinned epoch, so plans costed against one epoch's statistics are never
// replayed against another's.
func (e *Engine) plan(x core.PathExpr) (core.PathExpr, []string) {
	key := x.String()
	fp := planFingerprint(key)
	if plan, applied, ok := e.plans.get(e.epoch, fp, key); ok {
		addStat(&e.stats.PlanCacheHits, 1)
		return plan, applied
	}
	addStat(&e.stats.PlanCacheMisses, 1)
	var res opt.Result
	if e.opts.DisablePlanner {
		res = opt.Optimize(x)
	} else {
		res = opt.Plan(x, e.cm)
	}
	e.plans.put(e.epoch, fp, key, res.Plan, res.Applied)
	return res.Plan, res.Applied
}

// Run plans x (through the cache) and evaluates the chosen plan.
func (e *Engine) Run(x core.PathExpr) (*pathset.Set, error) {
	return e.RunCtx(context.Background(), x)
}

// RunCtx is Run with cooperative cancellation: cancelling ctx aborts the
// evaluation promptly — all evaluation workers stop at their next budget
// charge — and RunCtx returns ctx's cause, errors.Is-able as
// context.Canceled or context.DeadlineExceeded. Budget exhaustion remains
// errors.Is-able as core.ErrBudgetExceeded, so callers (e.g. an HTTP
// layer) can map the two failure modes to distinct statuses.
func (e *Engine) RunCtx(ctx context.Context, x core.PathExpr) (*pathset.Set, error) {
	b, release := e.pin()
	defer release()
	plan, _ := b.planTraced(ctx, x)
	sp := obs.SpanFrom(ctx).Start("eval")
	defer sp.End()
	sp.SetInt("epoch", int64(b.epoch))
	out, err := b.evalPathsCtx(obs.WithSpan(ctx, sp), plan, core.Quota{})
	if out != nil {
		sp.SetInt("paths", int64(out.Len()))
	}
	e.noteEvalErr(err)
	return out, err
}

// planTraced is plan wrapped in a "plan" trace span annotated with
// cache behavior, detected as the explain path does: by the
// PlanCacheHits delta (shared stats make this approximate under
// concurrent evaluations, which tracing tolerates).
func (e *Engine) planTraced(ctx context.Context, x core.PathExpr) (core.PathExpr, []string) {
	sp := obs.SpanFrom(ctx).Start("plan")
	defer sp.End()
	if sp == nil {
		return e.plan(x)
	}
	before := atomic.LoadInt64(&e.stats.PlanCacheHits)
	plan, applied := e.plan(x)
	var hit int64
	if atomic.LoadInt64(&e.stats.PlanCacheHits) > before {
		hit = 1
	}
	sp.SetInt("cache_hit", hit)
	sp.SetInt("epoch", int64(e.epoch))
	return plan, applied
}

// noteEvalErr accounts a finished evaluation's error into the stats —
// currently just budget exhaustion, the failure mode operators report
// as core.ErrBudgetExceeded.
func (e *Engine) noteEvalErr(err error) {
	if err != nil && errors.Is(err, core.ErrBudgetExceeded) {
		addStat(&e.stats.BudgetExhaustions, 1)
	}
}

// Graph returns the engine's graph: the current epoch's view on a live
// engine, the construction-time graph on a static one.
func (e *Engine) Graph() *graph.Graph {
	if e.store != nil {
		return e.store.Graph()
	}
	return e.g
}

// Epoch returns the engine's current epoch: the store's epoch on a live
// engine, the pinned epoch on a bound copy, 0 on a static engine.
func (e *Engine) Epoch() uint64 {
	if e.store != nil {
		return e.store.Epoch()
	}
	return e.epoch
}

// Store returns the live engine's store, or nil for a static engine.
func (e *Engine) Store() *graph.Store { return e.store }

// Parallelism returns the resolved worker count used by the engine's
// parallelizable operators.
func (e *Engine) Parallelism() int { return e.opts.parallelism() }

// Stats returns a snapshot of the counters accumulated so far.
func (e *Engine) Stats() Stats {
	return Stats{
		PathsProduced:         atomic.LoadInt64(&e.stats.PathsProduced),
		JoinProbes:            atomic.LoadInt64(&e.stats.JoinProbes),
		IndexedScans:          atomic.LoadInt64(&e.stats.IndexedScans),
		Recursions:            atomic.LoadInt64(&e.stats.Recursions),
		ExpandedRecursions:    atomic.LoadInt64(&e.stats.ExpandedRecursions),
		SeededRecursions:      atomic.LoadInt64(&e.stats.SeededRecursions),
		BackwardRecursions:    atomic.LoadInt64(&e.stats.BackwardRecursions),
		QuotaRecursions:       atomic.LoadInt64(&e.stats.QuotaRecursions),
		ReachKernelRuns:       atomic.LoadInt64(&e.stats.ReachKernelRuns),
		ReachFallbacks:        atomic.LoadInt64(&e.stats.ReachFallbacks),
		PlanCacheHits:         atomic.LoadInt64(&e.stats.PlanCacheHits),
		PlanCacheMisses:       atomic.LoadInt64(&e.stats.PlanCacheMisses),
		BudgetExhaustions:     atomic.LoadInt64(&e.stats.BudgetExhaustions),
		FingerprintCollisions: fingerprintCollisions() - e.collisionBase,
	}
}

// addStat atomically bumps one counter.
func addStat(counter *int64, n int64) { atomic.AddInt64(counter, n) }

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() {
	*e.stats = Stats{}
	e.collisionBase = fingerprintCollisions()
}

// EvalPaths evaluates a path-sorted expression to a set of paths.
func (e *Engine) EvalPaths(x core.PathExpr) (*pathset.Set, error) {
	return e.EvalPathsCtx(context.Background(), x)
}

// ctxErr reports the typed cancellation cause if ctx is already done —
// the operator-boundary cancellation check (the per-charge check inside
// the evaluators handles mid-operator aborts).
func ctxErr(ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// EvalPathsCtx is EvalPaths under cooperative cancellation: every
// operator boundary checks ctx, and the recursive operators (the
// unbounded-work part of any plan) additionally abort mid-flight via
// their budget's cancel check. On a live engine the whole evaluation runs
// against one pinned epoch.
func (e *Engine) EvalPathsCtx(ctx context.Context, x core.PathExpr) (*pathset.Set, error) {
	b, release := e.pin()
	defer release()
	out, err := b.evalPathsCtx(ctx, x, core.Quota{})
	e.noteEvalErr(err)
	return out, err
}

// evalPathsCtx is the recursive evaluator body, always running on a
// bound (or static) engine. q is the selector quota of the projection
// pipeline directly above x (zero: none): the Project case derives it
// from the pipeline's shape, and it travels down through exactly the
// operators opt.AnalyzeQuota admitted — σ, ∪ — to the pattern recursions,
// whose product search applies it. Every other operator evaluates its
// inputs without one.
func (e *Engine) evalPathsCtx(ctx context.Context, x core.PathExpr, q core.Quota) (*pathset.Set, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	switch x := x.(type) {
	case core.Nodes:
		s := core.EvalNodes(e.g)
		addStat(&e.stats.PathsProduced, int64(s.Len()))
		return s, nil
	case core.Edges:
		s := core.EvalEdges(e.g)
		addStat(&e.stats.PathsProduced, int64(s.Len()))
		return s, nil
	case core.Select:
		return e.evalSelect(ctx, x, q)
	case core.Join:
		l, err := e.evalPathsCtx(ctx, x.L, core.Quota{})
		if err != nil {
			return nil, err
		}
		r, err := e.evalPathsCtx(ctx, x.R, core.Quota{})
		if err != nil {
			return nil, err
		}
		return e.join(l, r), nil
	case core.Union:
		l, err := e.evalPathsCtx(ctx, x.L, q)
		if err != nil {
			return nil, err
		}
		r, err := e.evalPathsCtx(ctx, x.R, q)
		if err != nil {
			return nil, err
		}
		u := core.EvalUnion(l, r)
		addStat(&e.stats.PathsProduced, int64(u.Len()))
		return u, nil
	case core.Recurse:
		addStat(&e.stats.Recursions, 1)
		if !e.opts.DisableExpand {
			if out, ok, err := e.expandRecurse(ctx, x, q); ok {
				if err != nil {
					return nil, fmt.Errorf("engine: ϕ%s: %w", x.Sem, err)
				}
				addStat(&e.stats.ExpandedRecursions, 1)
				addStat(&e.stats.PathsProduced, int64(out.Len()))
				return out, nil
			}
		}
		base, err := e.evalPathsCtx(ctx, x.In, core.Quota{})
		if err != nil {
			return nil, err
		}
		out, err := core.EvalRecurseCtx(ctx, x.Sem, base, e.opts.Limits)
		if err != nil {
			return nil, fmt.Errorf("engine: ϕ%s: %w", x.Sem, err)
		}
		addStat(&e.stats.PathsProduced, int64(out.Len()))
		return out, nil
	case core.Restrict:
		in, err := e.evalPathsCtx(ctx, x.In, core.Quota{})
		if err != nil {
			return nil, err
		}
		out := core.EvalRestrict(x.Sem, in)
		addStat(&e.stats.PathsProduced, int64(out.Len()))
		return out, nil
	case core.Project:
		ss, err := e.evalSpaceCtx(ctx, x.In, e.pushedQuota(x))
		if err != nil {
			return nil, err
		}
		out := core.EvalProject(x.Parts, x.Groups, x.Paths, ss)
		addStat(&e.stats.PathsProduced, int64(out.Len()))
		return out, nil
	case nil:
		return nil, fmt.Errorf("engine: nil path expression")
	default:
		return nil, fmt.Errorf("engine: unsupported path expression %T", x)
	}
}

// pushedQuota is the selector quota the pipeline of p lets the product
// searches below it apply; zero when the shape admits none or the
// expansion fast path that would apply it is off.
func (e *Engine) pushedQuota(p core.Project) core.Quota {
	if e.opts.DisableExpand {
		return core.Quota{}
	}
	q, _ := opt.AnalyzeQuota(p)
	return q
}

// EvalSpace evaluates a space-sorted expression to a solution space.
func (e *Engine) EvalSpace(x core.SpaceExpr) (*core.SolutionSpace, error) {
	return e.EvalSpaceCtx(context.Background(), x)
}

// EvalSpaceCtx is EvalSpace under cooperative cancellation.
func (e *Engine) EvalSpaceCtx(ctx context.Context, x core.SpaceExpr) (*core.SolutionSpace, error) {
	b, release := e.pin()
	defer release()
	return b.evalSpaceCtx(ctx, x, core.Quota{})
}

// evalSpaceCtx is the recursive space-evaluator body on a bound engine;
// q is handed through γ and τ to the path input (see evalPathsCtx).
func (e *Engine) evalSpaceCtx(ctx context.Context, x core.SpaceExpr, q core.Quota) (*core.SolutionSpace, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	switch x := x.(type) {
	case core.GroupBy:
		in, err := e.evalPathsCtx(ctx, x.In, q)
		if err != nil {
			return nil, err
		}
		return core.EvalGroupBy(x.Key, in), nil
	case core.OrderBy:
		in, err := e.evalSpaceCtx(ctx, x.In, q)
		if err != nil {
			return nil, err
		}
		return core.EvalOrderBy(x.Key, in), nil
	case nil:
		return nil, fmt.Errorf("engine: nil space expression")
	default:
		return nil, fmt.Errorf("engine: unsupported space expression %T", x)
	}
}

// evalSelect evaluates σ, answering label-equality selections over the
// Edges/Nodes atoms straight from the graph's label indexes when allowed,
// and σ over pattern recursions by a seeded product search.
func (e *Engine) evalSelect(ctx context.Context, s core.Select, q core.Quota) (*pathset.Set, error) {
	if !e.opts.DisableLabelIndex {
		if out, ok := e.indexedSelect(s); ok {
			addStat(&e.stats.IndexedScans, 1)
			addStat(&e.stats.PathsProduced, int64(out.Len()))
			return out, nil
		}
	}
	if !e.opts.DisableExpand {
		if out, ok, err := e.seededRecurse(ctx, s, q); ok {
			if err != nil {
				return nil, err
			}
			addStat(&e.stats.PathsProduced, int64(out.Len()))
			return out, nil
		}
	}
	in, err := e.evalPathsCtx(ctx, s.In, q)
	if err != nil {
		return nil, err
	}
	out := core.EvalSelect(e.g, s.Cond, in)
	addStat(&e.stats.PathsProduced, int64(out.Len()))
	return out, nil
}

// seededRecurse answers σc(ϕSem(pattern)) by a product search seeded only
// at the nodes that can satisfy c's seed-side endpoint conjuncts: the
// first-node conjuncts of a forward search, the last-node conjuncts of a
// backward one. A first-only (last-only) conjunct's value is a function
// of the path's first (last) node alone, so seeding is exactly
// "evaluate everything, then filter" — including its result order, since
// per-seed shards merge in ascending seed order, the relative order the
// unseeded evaluation would have produced — at a fraction of the search
// work. Remaining conjuncts filter the admitted paths afterwards.
func (e *Engine) seededRecurse(ctx context.Context, s core.Select, q core.Quota) (*pathset.Set, bool, error) {
	rec, ok := s.In.(core.Recurse)
	if !ok {
		return nil, false, nil
	}
	re, ok := labelPattern(rec.In)
	if !ok {
		return nil, false, nil
	}
	first, last, rest := opt.SplitByEndpoint(s.Cond)
	back := rec.Dir == core.Backward
	var seedConds, filterConds []cond.Cond
	if back {
		seedConds = last
		filterConds = append(append([]cond.Cond{}, first...), rest...)
		re = rpq.Reverse(re)
	} else {
		if len(first) == 0 {
			// Nothing to seed with: the plain expansion path plus a
			// post-filter does the same work.
			return nil, false, nil
		}
		seedConds = first
		filterConds = append(append([]cond.Cond{}, last...), rest...)
	}
	addStat(&e.stats.Recursions, 1)
	addStat(&e.stats.ExpandedRecursions, 1)
	if back {
		addStat(&e.stats.BackwardRecursions, 1)
	}
	if q.K > 0 {
		addStat(&e.stats.QuotaRecursions, 1)
	}
	seeds := e.seedNodes(seedConds)
	if len(seedConds) > 0 {
		addStat(&e.stats.SeededRecursions, 1)
		if seeds == nil {
			seeds = []graph.NodeID{} // non-nil: zero seeds, not all nodes
		}
	}
	nfa := automaton.Build(rpq.Plus{In: re})
	out, err := automaton.EvalWithOptions(e.g, nfa, rec.Sem, e.opts.Limits, automaton.EvalOptions{
		Ctx:     ctx,
		Workers: e.opts.parallelism(),
		Dir:     rec.Dir,
		Seeds:   seeds,
		Quota:   q,
	})
	if err != nil {
		return nil, true, fmt.Errorf("engine: σϕ%s: %w", rec.Sem, err)
	}
	if len(filterConds) > 0 {
		out = core.EvalSelect(e.g, cond.Conj(filterConds...), out)
	}
	return out, true, nil
}

// seedNodes lists, ascending, the nodes whose length-zero path satisfies
// the conjunction — the seed set of a directed product search. A single
// label-equality condition answers from the label index; anything else
// scans the node set once.
func (e *Engine) seedNodes(conds []cond.Cond) []graph.NodeID {
	if len(conds) == 0 {
		return nil
	}
	if len(conds) == 1 {
		if lc, ok := conds[0].(cond.LabelCmp); ok && lc.Op == cond.EQ {
			return e.g.NodesWithLabel(lc.Value)
		}
	}
	c := cond.Conj(conds...)
	var seeds []graph.NodeID
	for n := 0; n < e.g.NumNodes(); n++ {
		id := graph.NodeID(n)
		if !e.g.NodeAlive(id) {
			continue
		}
		if c.Eval(e.g, path.FromNode(id)) {
			seeds = append(seeds, id)
		}
	}
	return seeds
}

// indexedSelect recognizes σ[label(edge(1)) = L](Edges(G)) and
// σ[label(first|node(1)) = L](Nodes(G)) and answers them from indexes.
func (e *Engine) indexedSelect(s core.Select) (*pathset.Set, bool) {
	lc, ok := s.Cond.(cond.LabelCmp)
	if !ok || lc.Op != cond.EQ {
		return nil, false
	}
	switch s.In.(type) {
	case core.Edges:
		if lc.Target.Kind != cond.TargetEdge || lc.Target.Pos != 1 {
			return nil, false
		}
		ids := e.g.EdgesWithLabel(lc.Value)
		out := pathset.New(len(ids))
		for _, id := range ids {
			out.Add(path.FromEdge(e.g, id))
		}
		return out, true
	case core.Nodes:
		isFirst := lc.Target.Kind == cond.TargetFirst ||
			(lc.Target.Kind == cond.TargetNode && lc.Target.Pos == 1) ||
			lc.Target.Kind == cond.TargetLast // first == last on length-0 paths
		if !isFirst {
			return nil, false
		}
		ids := e.g.NodesWithLabel(lc.Value)
		out := pathset.New(len(ids))
		for _, id := range ids {
			out.Add(path.FromNode(id))
		}
		return out, true
	default:
		return nil, false
	}
}

// expandRecurse answers ϕSem(In) by product search over the graph's
// adjacency lists when the base expression is a label pattern —
// σ[label(edge(1)) = L](Edges(G)), Edges(G), or joins/unions of such.
// The closure of such a base equals the language (pattern)+, so the
// recursion is exactly an RPQ and the automaton evaluator applies. ok is
// false when the base has a different shape.
func (e *Engine) expandRecurse(ctx context.Context, x core.Recurse, q core.Quota) (*pathset.Set, bool, error) {
	re, ok := labelPattern(x.In)
	if !ok {
		return nil, false, nil
	}
	if x.Dir == core.Backward {
		re = rpq.Reverse(re)
		addStat(&e.stats.BackwardRecursions, 1)
	}
	if q.K > 0 {
		addStat(&e.stats.QuotaRecursions, 1)
	}
	nfa := automaton.Build(rpq.Plus{In: re})
	out, err := automaton.EvalWithOptions(e.g, nfa, x.Sem, e.opts.Limits, automaton.EvalOptions{
		Ctx:     ctx,
		Workers: e.opts.parallelism(),
		Dir:     x.Dir,
		Quota:   q,
	})
	return out, true, err
}

// labelPattern converts a base expression built from label-equality
// selections over Edges(G), joins and unions into the equivalent regular
// path expression.
func labelPattern(x core.PathExpr) (rpq.Expr, bool) {
	switch x := x.(type) {
	case core.Edges:
		return rpq.AnyLabel{}, true
	case core.Select:
		lc, ok := x.Cond.(cond.LabelCmp)
		if !ok || lc.Op != cond.EQ || lc.Target.Kind != cond.TargetEdge || lc.Target.Pos != 1 {
			return nil, false
		}
		if _, ok := x.In.(core.Edges); !ok {
			return nil, false
		}
		return rpq.Label{Name: lc.Value}, true
	case core.Join:
		l, ok := labelPattern(x.L)
		if !ok {
			return nil, false
		}
		r, ok := labelPattern(x.R)
		if !ok {
			return nil, false
		}
		return rpq.Concat{L: l, R: r}, true
	case core.Union:
		l, ok := labelPattern(x.L)
		if !ok {
			return nil, false
		}
		r, ok := labelPattern(x.R)
		if !ok {
			return nil, false
		}
		return rpq.Alt{L: l, R: r}, true
	default:
		return nil, false
	}
}

// join dispatches on the configured strategy.
func (e *Engine) join(l, r *pathset.Set) *pathset.Set {
	var out *pathset.Set
	switch e.opts.Join {
	case NestedLoop:
		out = e.nestedLoopJoin(l, r)
	default:
		out = e.hashJoin(l, r)
	}
	addStat(&e.stats.PathsProduced, int64(out.Len()))
	return out
}

func (e *Engine) nestedLoopJoin(l, r *pathset.Set) *pathset.Set {
	out := pathset.New(l.Len())
	probes := int64(0)
	for _, p := range l.Paths() {
		for _, q := range r.Paths() {
			probes++
			if p.CanConcat(q) {
				out.Add(p.Concat(q))
			}
		}
	}
	addStat(&e.stats.JoinProbes, probes)
	return out
}

// hashJoin builds a positional index on First(q) over r and probes it with
// Last(p) for every p in l. Buckets hold int32 positions into r's path
// slice rather than path values, and the output set dedupes by fingerprint,
// so the join materializes no per-pair identity strings at all. For large
// build sides the index is built by parallel workers over disjoint chunks
// and merged in chunk order, which keeps every bucket's positions
// ascending — the probe phase (and therefore the output order) is
// identical to the sequential build.
func (e *Engine) hashJoin(l, r *pathset.Set) *pathset.Set {
	rp := r.Paths()
	byFirst := e.buildJoinIndex(rp)
	out := pathset.New(l.Len())
	probes := int64(0)
	for _, p := range l.Paths() {
		for _, qi := range byFirst[p.Last()] {
			probes++
			out.Add(p.Concat(rp[qi]))
		}
	}
	addStat(&e.stats.JoinProbes, probes)
	return out
}

// parallelBuildThreshold is the build-side size under which the hash-join
// index is built sequentially: below it goroutine startup dominates the
// map inserts being parallelized.
const parallelBuildThreshold = 2048

func (e *Engine) buildJoinIndex(rp []path.Path) map[graph.NodeID][]int32 {
	workers := e.opts.parallelism()
	if len(rp) < parallelBuildThreshold || workers <= 1 {
		byFirst := make(map[graph.NodeID][]int32, len(rp))
		for i, q := range rp {
			byFirst[q.First()] = append(byFirst[q.First()], int32(i))
		}
		return byFirst
	}
	if workers > len(rp) {
		workers = len(rp)
	}
	// Each worker indexes one contiguous chunk; chunks are merged in chunk
	// order so per-node position lists stay ascending.
	chunkMaps := make([]map[graph.NodeID][]int32, workers)
	chunk := (len(rp) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(rp))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			m := make(map[graph.NodeID][]int32, hi-lo)
			for i := lo; i < hi; i++ {
				m[rp[i].First()] = append(m[rp[i].First()], int32(i))
			}
			chunkMaps[w] = m
		}(w, lo, hi)
	}
	wg.Wait()
	byFirst := chunkMaps[0]
	for _, m := range chunkMaps[1:] {
		for n, positions := range m {
			byFirst[n] = append(byFirst[n], positions...)
		}
	}
	return byFirst
}
