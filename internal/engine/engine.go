// Package engine executes path algebra plans (internal/core expression
// trees) against a property graph. It is the optimized counterpart of the
// reference operator implementations in internal/core: joins use endpoint
// hashing instead of nested loops, label-equality selections over the
// Edges/Nodes atoms use the graph's label indexes, selections over
// pattern recursions seed a directed product search, selector pipelines
// (π over τ over γ) push the number of paths they keep per endpoint pair
// into that search and run as one node over position arrays, and every
// evaluation runs under an explicit recursion budget. The engine
// recognizes none of these shapes itself: it evaluates the annotated tree
// opt.Derive produces and dispatches on the properties it carries.
// Engine.Run plans through the cost-based planner (internal/opt) and an
// LRU plan cache that keeps each plan's derivation; every evaluated
// operator opens a trace span, and Engine.Explain reports the chosen plan
// with estimated cardinalities beside the actual ones those spans record
// in one traced run. The randomized differential harness cross-checks
// every route against the reference implementations.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// Options configures an Engine.
type Options struct {
	// Limits bounds every recursive operator evaluation. The zero value
	// applies core.DefaultMaxPaths as a safety net. WithLimits returns a
	// view of the engine that evaluates under other limits.
	Limits core.Limits
	// Deprecated: ignored. Every operator, the product search included,
	// runs on the evaluating goroutine.
	Parallelism int
	// DisablePlanner makes Plan/Run fall back to the statistics-free
	// heuristic optimizer (opt.Optimize): no cost-based join
	// re-association, no backward evaluation. Used as the baseline of the
	// differential harness and ablation benchmarks. The plan cache stays
	// on either way.
	DisablePlanner bool
}

// planCacheSize is the capacity of an engine's plan cache, in plans.
const planCacheSize = 64

// Stats accumulates execution counters across one engine's evaluations.
// The engine updates the underlying counters with atomic adds, because
// concurrent calls share one engine's counters. Stats values returned by
// Engine.Stats are plain snapshots.
type Stats struct {
	// PathsProduced counts paths emitted by all operators.
	PathsProduced int64
	// JoinProbes counts hash-join probes: the path pairs that concatenate.
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
	// SeedScans counts seed sets (of a product search or a reach-kernel
	// evaluation) computed by scanning every node, because no conjunct of
	// the endpoint condition is an equality the label or property
	// postings answer.
	SeedScans int64
	// BackwardRecursions counts product searches the planner ran
	// backward (reversed automaton over the in-adjacency).
	BackwardRecursions int64
	// QuotaRecursions counts product searches that ran under a selector
	// quota pushed down from the projection above them
	// (opt.Node.Quota).
	QuotaRecursions int64
	// ReachKernelRuns counts Reach calls answered by the product BFS;
	// ReachFallbacks counts Reach calls whose plan is ineligible and
	// enumerated instead.
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
// Run/RunStream/Explain/Stats from many goroutines at once, each call
// under its own limits (WithLimits; the query service layer does exactly
// that). Each call evaluates on its caller's goroutine.
type Engine struct {
	g    *graph.Graph
	opts Options
	// store, when non-nil, makes this a live engine: every public entry
	// point takes the store's current epoch and evaluates a bound copy of
	// the engine against that epoch's immutable graph and statistics. A
	// static engine (store == nil) evaluates g directly.
	store *graph.Store
	// epoch is the epoch of a bound copy (and the cache key its
	// Plan calls use); always 0 on a static engine.
	epoch uint64
	// stats is shared by pointer so bound copies and limits views account
	// into the same counters.
	stats *counters
	// cm is the cost model over the bound epoch's statistics and the
	// engine's limits; it drives Plan (unless DisablePlanner) and the
	// -explain estimates.
	cm *opt.CostModel
	// plans is the LRU plan cache consulted by Plan, keyed by
	// (epoch, limits, plan); shared across bound copies and limits views.
	plans *planCache
}

// counters is an engine's accumulating state.
type counters struct {
	Stats
	// collisionBase is the fingerprintCollisions reading at construction;
	// Stats reports the delta since then.
	collisionBase int64
}

// New returns a static engine over g with the given options.
func New(g *graph.Graph, opts Options) *Engine {
	return &Engine{
		g:     g,
		opts:  opts,
		stats: &counters{collisionBase: fingerprintCollisions()},
		cm:    &opt.CostModel{Stats: g.Stats(), Limits: opts.Limits},
		plans: newPlanCache(planCacheSize),
	}
}

// WithLimits returns the engine evaluating under lim: the receiver when
// lim is its limits already, otherwise a view that shares the receiver's
// graph or store, stats and plan cache and differs only in its limits.
// A plan is cached per limits, since the planner costs recursions by
// MaxLen.
func (e *Engine) WithLimits(lim core.Limits) *Engine {
	if lim == e.opts.Limits {
		return e
	}
	v := *e
	v.opts.Limits = lim
	v.cm = &opt.CostModel{Stats: e.cm.Stats, Limits: lim}
	return &v
}

// NewWithStore returns a live engine over a store: every Run, RunStream,
// Explain and Plan evaluates against the store's current epoch, taken once
// when the call starts, so each call sees one consistent graph no matter
// how many batches apply concurrently, and plans are cached and costed
// per epoch.
func NewWithStore(s *graph.Store, opts Options) *Engine {
	e := New(s.Graph(), opts)
	e.store = s
	return e
}

// bind returns the engine to evaluate against. A static engine returns
// itself; a live engine returns a bound shallow copy — same options,
// shared stats and plan cache, but graph, epoch and cost model fixed to
// the store's current epoch. Published graphs are immutable, so the copy
// needs no release. Its store field is nil, so nested public calls made
// on it do not re-bind.
func (e *Engine) bind() *Engine {
	if e.store == nil {
		return e
	}
	b := *e
	b.store = nil
	b.g, b.epoch = e.store.Current()
	b.cm = &opt.CostModel{Stats: b.g.Stats(), Limits: e.opts.Limits}
	return &b
}

// Plan turns a logical plan into the physical plan the engine will
// evaluate, consulting the LRU plan cache first. Cache misses run the
// cost-based planner (opt.Plan) — or the statistics-free opt.Optimize
// when DisablePlanner is set — derive the plan's properties (opt.Derive)
// and memoize both under the normalized fingerprint of the input plan's
// canonical rendering.
func (e *Engine) Plan(x core.PathExpr) (core.PathExpr, []string) {
	ent, _ := e.bind().plan(x)
	return ent.plan, ent.applied
}

// derive is opt.Derive; a variable so tests can count derivations.
var derive = opt.Derive

// plan is Plan on an already-bound engine, returning the whole cache
// entry and whether the cache held it: the cache key includes the bound
// epoch and the limits, so plans costed against one epoch's statistics or
// one MaxLen are never replayed against another's.
func (e *Engine) plan(x core.PathExpr) (*planEntry, bool) {
	key := x.String()
	fp := planFingerprint(key)
	if ent, ok := e.plans.get(e.epoch, e.opts.Limits, fp, key); ok {
		addStat(&e.stats.PlanCacheHits, 1)
		return ent, true
	}
	addStat(&e.stats.PlanCacheMisses, 1)
	var res opt.Result
	if e.opts.DisablePlanner {
		res = opt.Optimize(x)
	} else {
		res = opt.Plan(x, e.cm)
	}
	ent := &planEntry{epoch: e.epoch, limits: e.opts.Limits, key: key, plan: res.Plan, applied: res.Applied, derived: derive(res.Plan)}
	e.plans.put(fp, ent)
	return ent, false
}

// Run plans x (through the cache) and evaluates the chosen plan.
func (e *Engine) Run(x core.PathExpr) (*pathset.Set, error) {
	return e.RunCtx(context.Background(), x)
}

// RunCtx is Run with cooperative cancellation: cancelling ctx aborts the
// evaluation promptly — the search stops at its next budget charge — and
// RunCtx returns ctx's cause, errors.Is-able as
// context.Canceled or context.DeadlineExceeded. Budget exhaustion remains
// errors.Is-able as core.ErrBudgetExceeded, so callers (e.g. an HTTP
// layer) can map the two failure modes to distinct statuses.
func (e *Engine) RunCtx(ctx context.Context, x core.PathExpr) (*pathset.Set, error) {
	_, out, err := e.bind().run(ctx, x)
	return out, err
}

// run is RunCtx on a bound engine: it plans x under a "plan" span and
// evaluates the plan under an "eval" span, returning the plan-cache
// entry it ran. Explain observes exactly this run.
func (e *Engine) run(ctx context.Context, x core.PathExpr) (*planEntry, *pathset.Set, error) {
	ent := e.planTraced(ctx, x)
	sp := obs.SpanFrom(ctx).Start("eval")
	defer sp.End()
	sp.SetInt("epoch", int64(e.epoch))
	out, err := e.eval(obs.WithSpan(ctx, sp), ent.derived.Root)
	if out != nil {
		sp.SetInt("paths", int64(out.Len()))
	}
	e.noteEvalErr(err)
	return ent, out, err
}

// planTraced is plan wrapped in a "plan" trace span annotated with
// whether the plan cache held the plan.
func (e *Engine) planTraced(ctx context.Context, x core.PathExpr) *planEntry {
	sp := obs.SpanFrom(ctx).Start("plan")
	defer sp.End()
	ent, hit := e.plan(x)
	var h int64
	if hit {
		h = 1
	}
	sp.SetInt("cache_hit", h)
	sp.SetInt("epoch", int64(e.epoch))
	return ent
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

// Stats returns a snapshot of the counters accumulated so far.
func (e *Engine) Stats() Stats {
	return Stats{
		PathsProduced:         atomic.LoadInt64(&e.stats.PathsProduced),
		JoinProbes:            atomic.LoadInt64(&e.stats.JoinProbes),
		IndexedScans:          atomic.LoadInt64(&e.stats.IndexedScans),
		Recursions:            atomic.LoadInt64(&e.stats.Recursions),
		ExpandedRecursions:    atomic.LoadInt64(&e.stats.ExpandedRecursions),
		SeededRecursions:      atomic.LoadInt64(&e.stats.SeededRecursions),
		SeedScans:             atomic.LoadInt64(&e.stats.SeedScans),
		BackwardRecursions:    atomic.LoadInt64(&e.stats.BackwardRecursions),
		QuotaRecursions:       atomic.LoadInt64(&e.stats.QuotaRecursions),
		ReachKernelRuns:       atomic.LoadInt64(&e.stats.ReachKernelRuns),
		ReachFallbacks:        atomic.LoadInt64(&e.stats.ReachFallbacks),
		PlanCacheHits:         atomic.LoadInt64(&e.stats.PlanCacheHits),
		PlanCacheMisses:       atomic.LoadInt64(&e.stats.PlanCacheMisses),
		BudgetExhaustions:     atomic.LoadInt64(&e.stats.BudgetExhaustions),
		FingerprintCollisions: fingerprintCollisions() - e.stats.collisionBase,
	}
}

// addStat atomically bumps one counter.
func addStat(counter *int64, n int64) { atomic.AddInt64(counter, n) }

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
// against one epoch. x is evaluated as given, not planned; it is
// derived once at its root, so selector quotas are pushed as in Run.
func (e *Engine) EvalPathsCtx(ctx context.Context, x core.PathExpr) (*pathset.Set, error) {
	out, err := e.bind().eval(ctx, derive(x).Root)
	e.noteEvalErr(err)
	return out, err
}

// eval is the recursive evaluator over a derived plan, always running on
// a bound (or static) engine. Under a traced context every evaluated
// node gets one operator span, named by opLabel and annotated with the
// paths it produced; untraced, the span is nil and costs a nil check.
func (e *Engine) eval(ctx context.Context, n *opt.Node) (*pathset.Set, error) {
	sp := opSpan(ctx, n)
	defer sp.End()
	out, err := e.evalOp(obs.WithSpan(ctx, sp), n)
	if out != nil {
		sp.SetInt("paths", int64(out.Len()))
	}
	return out, err
}

// opSpan opens n's operator span under ctx's span; nil when ctx carries
// none, so the label is only rendered for a trace.
func opSpan(ctx context.Context, n *opt.Node) *obs.Span {
	if parent := obs.SpanFrom(ctx); parent != nil {
		return parent.Start(opLabel(n))
	}
	return nil
}

// evalOp evaluates one node. A node a label index or a product search
// answers is dispatched on that property; every other node evaluates its
// operator over its operands.
func (e *Engine) evalOp(ctx context.Context, n *opt.Node) (*pathset.Set, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if n.Scan != nil {
		out := e.indexScan(*n.Scan)
		addStat(&e.stats.IndexedScans, 1)
		addStat(&e.stats.PathsProduced, int64(out.Len()))
		return out, nil
	}
	if n.Search != nil {
		return e.search(ctx, n)
	}
	var out *pathset.Set
	switch x := n.Path.(type) {
	case core.Nodes:
		out = core.EvalNodes(e.g)
	case core.Edges:
		out = core.EvalEdges(e.g)
	case core.Select:
		in, err := e.eval(ctx, n.In[0])
		if err != nil {
			return nil, err
		}
		out = core.EvalSelect(e.g, x.Cond, in)
	case core.Join:
		l, err := e.eval(ctx, n.In[0])
		if err != nil {
			return nil, err
		}
		r, err := e.eval(ctx, n.In[1])
		if err != nil {
			return nil, err
		}
		out = e.hashJoin(l, r)
	case core.Union:
		l, err := e.eval(ctx, n.In[0])
		if err != nil {
			return nil, err
		}
		r, err := e.eval(ctx, n.In[1])
		if err != nil {
			return nil, err
		}
		out = core.EvalUnion(l, r)
	case core.Recurse:
		addStat(&e.stats.Recursions, 1)
		base, err := e.eval(ctx, n.In[0])
		if err != nil {
			return nil, err
		}
		if out, err = core.EvalRecurseCtx(ctx, x.Sem, base, e.opts.Limits); err != nil {
			return nil, fmt.Errorf("engine: ϕ%s: %w", x.Sem, err)
		}
	case core.Restrict:
		in, err := e.eval(ctx, n.In[0])
		if err != nil {
			return nil, err
		}
		out = core.EvalRestrict(x.Sem, in)
	case core.Project:
		sel, src, err := pipelineOf(x, n)
		if err != nil {
			return nil, err
		}
		in, err := e.eval(ctx, src)
		if err != nil {
			return nil, err
		}
		var parts, groups int
		out, parts, groups = sel.project(in)
		sp := obs.SpanFrom(ctx)
		sp.SetInt("partitions", int64(parts))
		sp.SetInt("groups", int64(groups))
	case nil:
		return nil, fmt.Errorf("engine: nil path expression")
	default:
		return nil, fmt.Errorf("engine: unsupported path expression %T", x)
	}
	addStat(&e.stats.PathsProduced, int64(out.Len()))
	return out, nil
}

// search answers n by the product search the derivation attached to it —
// ϕ over a label pattern, or σ over one seeded at the nodes that satisfy
// its seed-side conjuncts (opt.Search) — under the selector quota pushed
// to n, then applies the search's filter.
func (e *Engine) search(ctx context.Context, n *opt.Node) (*pathset.Set, error) {
	s := n.Search
	addStat(&e.stats.Recursions, 1)
	addStat(&e.stats.ExpandedRecursions, 1)
	if s.Rec.Dir == core.Backward {
		addStat(&e.stats.BackwardRecursions, 1)
	}
	if n.Quota.K > 0 {
		addStat(&e.stats.QuotaRecursions, 1)
	}
	if len(s.Seed) > 0 {
		addStat(&e.stats.SeededRecursions, 1)
	}
	out, err := automaton.EvalWithOptions(e.g, s.NFA, s.Rec.Sem, e.opts.Limits, automaton.EvalOptions{
		Ctx:   ctx,
		Dir:   s.Rec.Dir,
		Seeds: e.seedNodes(ctx, s.Seed),
		Quota: n.Quota,
	})
	if err != nil {
		op := "ϕ"
		if _, ok := n.Path.(core.Select); ok {
			op = "σϕ"
		}
		return nil, fmt.Errorf("engine: %s%s: %w", op, s.Rec.Sem, err)
	}
	if s.Filter != nil {
		out = core.EvalSelect(e.g, s.Filter, out)
	}
	addStat(&e.stats.PathsProduced, int64(out.Len()))
	return out, nil
}

// seedNodes lists, ascending, the live nodes whose length-zero path
// satisfies every conjunct — the seed set of a directed product search or
// a reach-kernel evaluation. It returns nil only for no conjuncts (every
// node seeds); an empty seed set is non-nil. On a length-zero path first,
// last and node(1) are the node itself, so an equality conjunct on one of
// them names a posting list (NodesWithLabel, NodesWithProp). The smallest
// such list is the candidate set and the conjuncts are evaluated on its
// nodes only, bar a label conjunct that supplied the list, which is
// exact. Only when no conjunct has a list are all nodes scanned. A lone
// label conjunct returns the label index itself; do not modify it.
func (e *Engine) seedNodes(ctx context.Context, conds []cond.Cond) []graph.NodeID {
	if len(conds) == 0 {
		return nil
	}
	sp := obs.SpanFrom(ctx).Start("seed")
	defer sp.End()
	var cands []graph.NodeID
	pick := -1
	for i, c := range conds {
		if ids, ok := e.postings(c); ok && (pick < 0 || len(ids) < len(cands)) {
			cands, pick = ids, i
		}
	}
	var seeds []graph.NodeID
	scanned := 0
	switch {
	case pick < 0:
		addStat(&e.stats.SeedScans, 1)
		for n := 0; n < e.g.NumNodes(); n++ {
			if id := graph.NodeID(n); e.g.NodeAlive(id) {
				scanned++
				if e.holds(conds, -1, id) {
					seeds = append(seeds, id)
				}
			}
		}
	case len(conds) == 1 && isLabel(conds[0]):
		seeds = cands
	default:
		skip := -1
		if isLabel(conds[pick]) {
			skip = pick
		}
		for _, id := range cands {
			if e.holds(conds, skip, id) {
				seeds = append(seeds, id)
			}
		}
	}
	if seeds == nil {
		seeds = []graph.NodeID{} // zero seeds, not all nodes
	}
	sp.SetInt("conjuncts", int64(len(conds)))
	sp.SetInt("candidates", int64(max(len(cands), scanned)))
	sp.SetInt("seeds", int64(len(seeds)))
	sp.SetInt("scanned", int64(scanned))
	return seeds
}

// postings returns the posting list of an equality conjunct on the seed
// node: label(first|last|node(1)) = L, or first|last|node(1).k = v when
// the graph can index v. A label list is exact; a property list may hold
// non-matches (see graph.NodesWithProp).
func (e *Engine) postings(c cond.Cond) ([]graph.NodeID, bool) {
	switch c := c.(type) {
	case cond.LabelCmp:
		if c.Op == cond.EQ && onSeed(c.Target) {
			if c.Value == "" {
				return nil, true // an unlabelled node satisfies no label condition
			}
			return e.g.NodesWithLabel(c.Value), true
		}
	case cond.PropCmp:
		if c.Op == cond.EQ && onSeed(c.Target) {
			return e.g.NodesWithProp(c.Prop, c.Value)
		}
	}
	return nil, false
}

func onSeed(t cond.Target) bool {
	return t.Kind == cond.TargetFirst || t.Kind == cond.TargetLast || (t.Kind == cond.TargetNode && t.Pos == 1)
}

func isLabel(c cond.Cond) bool {
	_, ok := c.(cond.LabelCmp)
	return ok
}

// holds reports whether node id's length-zero path satisfies every
// conjunct except conds[skip].
func (e *Engine) holds(conds []cond.Cond, skip int, id graph.NodeID) bool {
	p := path.FromNode(id)
	for i, c := range conds {
		if i != skip && !c.Eval(e.g, p) {
			return false
		}
	}
	return true
}

// indexScan answers σ[label(edge(1)) = L](Edges(G)) and
// σ[label(first|node(1)) = L](Nodes(G)) from the graph's label indexes.
func (e *Engine) indexScan(s opt.Scan) *pathset.Set {
	if s.Edge {
		ids := e.g.EdgesWithLabel(s.Label)
		out := pathset.New(len(ids))
		for _, id := range ids {
			out.Add(path.FromEdge(e.g, id))
		}
		return out
	}
	ids := e.g.NodesWithLabel(s.Label)
	out := pathset.New(len(ids))
	for _, id := range ids {
		out.Add(path.FromNode(id))
	}
	return out
}

// PlanFootprint returns the label footprint of a physical plan
// (opt.Derivation.Footprint): which node and edge label populations the
// plan's result can depend on, so that ingest batches invalidate only the
// cached results whose plans read a touched label (graph.Store.ValidAt).
// An evaluation reports the footprint of the plan it ran
// (Stream.Footprint, ReachResult.Footprint) without deriving it again.
func PlanFootprint(x core.PathExpr) graph.Footprint { return opt.Derive(x).Footprint }

// hashJoin builds a positional index on First(q) over r and probes it with
// Last(p) for every p in l. Buckets hold int32 positions into r's path
// slice rather than path values, and the output set dedupes by fingerprint,
// so the join materializes no per-pair identity strings at all.
func (e *Engine) hashJoin(l, r *pathset.Set) *pathset.Set {
	rp := r.Paths()
	byFirst := make(map[graph.NodeID][]int32, len(rp))
	for i, q := range rp {
		byFirst[q.First()] = append(byFirst[q.First()], int32(i))
	}
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
