package automaton

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pathalgebra/internal/core"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// The product search is copy-free: search states hold path.Ref handles
// into a per-worker prefix-sharing arena (see internal/path/arena.go), so
// extending a path is an O(1) arena append, admissibility checks are
// allocation-free parent-chain walks, and a path's node/edge slices are
// materialized exactly once — when it is admitted into the result set.
// Transition dispatch is symbol-interned: the NFA is compiled against the
// graph's label symbol table (CompiledNFA) and the inner loop iterates
// only the adjacency runs whose symbol the current state can read.

// Eval evaluates the regular path query described by the automaton over
// every pair of endpoints in g, returning the matching paths under the
// given semantics. It is the classical product-graph search: search states
// are (path-so-far, NFA state) pairs. Eval runs single-threaded; it is
// exactly EvalParallel with one worker.
//
// Semantics note: the automaton applies Trail/Acyclic/Simple to the whole
// matched path, which coincides with the algebraic ϕSem(base) for patterns
// whose recursion spans the whole expression (L+, (L1/L2)*, unions of
// such); for concatenations of separately-restricted recursions the
// algebra is by design more permissive (§2.3 applies restrictors per
// query part). Cross-checking tests use patterns of the former shape.
func Eval(g *graph.Graph, nfa *NFA, sem core.Semantics, lim core.Limits) (*pathset.Set, error) {
	return EvalParallel(g, nfa, sem, lim, 1)
}

// EvalParallel is Eval sharded across worker goroutines by source node:
// every source runs its own product search with a private arena, frontier,
// scratch and visited set, and the per-source result shards are merged
// deterministically afterwards. Because every path belongs to exactly one
// source (its first node), the shard searches partition the sequential
// search exactly, and the merge reproduces the sequential discovery order
// — BFS depth major, then ascending source node — so the result is
// byte-identical to Eval for every worker count.
//
// Budgets are global, not per shard: all workers charge one shared atomic
// core.Budget, so MaxPaths and MaxWork hold across the whole evaluation.
// On a budget error the error is reported deterministically, but the
// partial result may differ between runs (workers bail out as soon as any
// shard trips the budget).
//
// workers <= 0 selects runtime.GOMAXPROCS(0); the count is capped by the
// number of source nodes.
func EvalParallel(g *graph.Graph, nfa *NFA, sem core.Semantics, lim core.Limits, workers int) (*pathset.Set, error) {
	return EvalWithOptions(g, nfa, sem, lim, EvalOptions{Workers: workers})
}

// EvalOptions parameterizes EvalWithOptions beyond the classic all-pairs
// forward search.
type EvalOptions struct {
	// Ctx, when cancellable, aborts the evaluation promptly: all workers
	// stop at their next budget charge (or frontier item) and the
	// evaluation returns the context's cause, errors.Is-able as
	// context.Canceled / context.DeadlineExceeded. nil means no
	// cancellation (context.Background()).
	Ctx context.Context
	// Workers is the worker goroutine count; <= 0 selects GOMAXPROCS.
	Workers int
	// Dir selects the search direction. Backward seeds per-seed searches
	// at path TARGETS and walks the graph's in-adjacency; the nfa passed
	// to EvalWithOptions must then be built from the REVERSED expression
	// (rpq.Reverse), and results materialize reversed — i.e. as ordinary
	// forward paths. The answer set is identical to a forward evaluation;
	// only discovery order (and therefore result-set order) differs.
	Dir core.Direction
	// Seeds restricts the search to paths whose seed endpoint (first node
	// forward, last node backward) is in the list; nil means every node.
	// Seeds must be ascending and duplicate-free — the per-seed shards
	// merge in list order, so an ascending list reproduces exactly the
	// relative order of the corresponding unseeded evaluation.
	Seeds []graph.NodeID
	// Quota, when K > 0, declares that the caller keeps per (seed, reached
	// node) pair only the first K paths in discovery order — or, ByLength,
	// the paths of the K smallest distinct lengths — and lets the search
	// skip the rest: the result is the subsequence of the unrestricted
	// result that such a caller would have kept (see quotaState). Shortest
	// semantics ignores it: it runs as Walk under its own one-length
	// quota, {K: 1, ByLength: true}.
	Quota core.Quota
}

// seedAt resolves the i-th seed: the identity when no seed list is given.
//
//pathalgebra:hotpath
func seedAt(seeds []graph.NodeID, i int) graph.NodeID {
	if seeds == nil {
		return graph.NodeID(i)
	}
	return seeds[i]
}

// EvalWithOptions is the general product search: per-seed sharded like
// EvalParallel, optionally restricted to a seed set and optionally running
// backward over reversed edges (see EvalOptions).
func EvalWithOptions(g *graph.Graph, nfa *NFA, sem core.Semantics, lim core.Limits, o EvalOptions) (*pathset.Set, error) {
	count := g.NumNodes()
	if o.Seeds != nil {
		count = len(o.Seeds)
	}
	workers := normalizeWorkers(o.Workers, count)
	bud := core.NewBudget(lim)
	if o.Ctx != nil {
		stop := bud.Watch(o.Ctx)
		defer stop()
	}
	// Tracing rides the existing context plumbing: a nil span (the
	// production default) makes every annotation below a nil check.
	sp := obs.SpanFrom(o.Ctx).Start("search")
	defer func() {
		sp.SetInt("paths_charged", bud.Paths())
		sp.SetInt("work_charged", bud.Work())
		sp.End()
	}()
	sp.SetInt("sources", int64(count))
	sp.SetInt("workers", int64(workers))
	c := nfa.Compile(g)
	back := o.Dir == core.Backward
	if back {
		sp.SetInt("backward", 1)
	}
	// ϕShortest is the Walk search that keeps each pair's smallest length:
	// under a one-length quota a product state expands only at its first
	// BFS level and a pair keeps only its first length. Every prefix of a
	// minimal path is a shortest product walk, so that is exactly the
	// minimal paths, in Walk discovery order, and it terminates without
	// MaxLen.
	if sem == core.Shortest {
		sem, o.Quota = core.Walk, core.Quota{K: 1, ByLength: true}
	}
	if o.Quota.K > 0 {
		sp.SetInt("quota_k", int64(o.Quota.K))
		if o.Quota.ByLength {
			sp.SetInt("quota_by_length", 1)
		}
	}
	return evalSearch(g, c, sem, lim, bud, workers, o.Seeds, count, back, o.Quota, sp)
}

func normalizeWorkers(workers, sources int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > sources {
		workers = sources
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runSharded distributes sources 0..n-1 over the given number of workers.
// Each worker gets one scratch value from newScratch and pulls sources off
// a shared atomic cursor (work stealing, so uneven per-source costs
// balance). run returning false stops the whole pool early — remaining
// sources are skipped, which only happens after a budget error.
//
// Panic isolation: a panic inside run stops the pool the same way and is
// returned as a typed error (errors.Is core.ErrInternal) instead of
// unwinding a worker goroutine and killing the process. The panicking
// shard's scratch is simply abandoned — scratch arenas are pool-private,
// so nothing shared is left poisoned and the other workers drain cleanly
// before runSharded returns.
// When tracing is on, each worker runs under its own "shard" child of
// sp (nil sp: zero cost); newScratch receives that span so per-worker
// scratch can annotate it as sources flow through.
func runSharded[S any](sp *obs.Span, n, workers int, newScratch func(wsp *obs.Span) S, run func(sc S, src int) bool) error {
	var cursor atomic.Int64
	var failed atomic.Bool
	var panicErr atomic.Pointer[error]
	// record files the first recovered panic as the pool's error and stops
	// the remaining workers; concurrent later panics lose the race and are
	// dropped (one cause is enough to fail the evaluation).
	record := func(r any) {
		if r == nil {
			return
		}
		err := core.Recovered(r)
		panicErr.CompareAndSwap(nil, &err)
		failed.Store(true)
	}
	work := func() {
		wsp := sp.Start("shard")
		defer wsp.End()
		sc := newScratch(wsp)
		for !failed.Load() {
			src := int(cursor.Add(1)) - 1
			if src >= n {
				return
			}
			// Injected worker faults surface as panics so the chaos tests
			// exercise the same recovery path as a real evaluator bug.
			if err := fault.Hit("automaton.worker"); err != nil {
				panic(err)
			}
			if !run(sc, src) {
				failed.Store(true)
				return
			}
		}
	}
	if workers <= 1 {
		func() {
			defer func() { record(recover()) }()
			work()
		}()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { record(recover()) }()
				work()
			}()
		}
		wg.Wait()
	}
	if p := panicErr.Load(); p != nil {
		return *p
	}
	return nil
}

// symbolScan is one (matching edges, target states) pair produced by
// scanRuns for the search inner loop.
type symbolScan struct {
	edges   []graph.EdgeID
	targets []StateID
}

// scanRuns fills dst (reused scratch) with the label-homogeneous adjacency
// runs of n readable from state s, paired with their target states, in
// ascending symbol order; back selects the in-adjacency instead of the
// out-adjacency. It picks the cheaper driver per call: iterate the node's
// runs when the state reads every symbol (any-label) or more symbols than
// the node has runs, else iterate the state's symbol set with a
// binary-search lookup per symbol. Both drivers enumerate the same
// intersection in the same order, so the choice never affects results.
//
//pathalgebra:hotpath
func scanRuns(dst []symbolScan, g *graph.Graph, c *CompiledNFA, n graph.NodeID, s StateID, back bool) []symbolScan {
	dst = dst[:0]
	var runs []graph.SymbolRun
	if back {
		runs = g.InRuns(n)
	} else {
		runs = g.OutRuns(n)
	}
	syms := c.StateSymbols(s)
	if c.AllSymbols(s) || len(syms) >= len(runs) {
		for _, run := range runs {
			if targets := c.Trans(s, run.Sym); len(targets) > 0 {
				dst = append(dst, symbolScan{edges: run.Edges, targets: targets})
			}
		}
		return dst
	}
	//lint:ignore budgetcharge pure adjacency helper: callers charge per extension drawn from the returned scans
	for _, sym := range syms {
		var edges []graph.EdgeID
		if back {
			edges = g.InWithSymbol(n, sym)
		} else {
			edges = g.OutWithSymbol(n, sym)
		}
		if len(edges) > 0 {
			dst = append(dst, symbolScan{edges: edges, targets: c.Trans(s, sym)})
		}
	}
	return dst
}

// stepNode returns the node a product-search step lands on after reading
// edge eid: the edge's head forward, its tail backward.
//
//pathalgebra:hotpath
func stepNode(g *graph.Graph, eid graph.EdgeID, back bool) graph.NodeID {
	src, dst := g.Endpoints(eid)
	if back {
		return src
	}
	return dst
}

// addResult admits the arena path at r into the result set with the
// materialization matching the search direction — backward chains hold
// paths last-node-first, so they materialize reversed, with canonical
// forward fingerprints.
func addResult(s *pathset.Set, a *path.Arena, r path.Ref, back bool) bool {
	if back {
		return s.AddArenaReversed(a, r)
	}
	return s.AddArena(a, r)
}

// searchItem is one product-search state: an arena path handle plus the
// NFA state reached by reading its label word.
type searchItem struct {
	ref   path.Ref
	state StateID
}

// evalScratch is one worker's reusable working storage: the path arena,
// frontier slices and the per-state visited RefSets survive across the
// sources the worker processes (the arena resets between sources, which
// keeps refs 32-bit and makes per-source cleanup a slice truncation).
// Paths record their start node, so (path, state) pairs from different
// source nodes can never collide and per-source visited sets partition
// the global mark set exactly.
type evalScratch struct {
	arena          *path.Arena
	frontier, next []searchItem
	runs           []symbolScan
	visited        []*path.RefSet // per NFA state
	quota          quotaState     // used only under an EvalOptions.Quota
	span           *obs.Span      // this worker's shard span; nil when untraced
}

func newEvalScratch(states int, wsp *obs.Span) *evalScratch {
	a := path.NewArena(0)
	sc := &evalScratch{arena: a, visited: make([]*path.RefSet, states), span: wsp}
	for s := range sc.visited {
		sc.visited[s] = path.NewRefSet(a)
	}
	return sc
}

// quotaCount is one quota counter: the arrivals counted so far — paths,
// or distinct BFS levels under a length quota — and the last level
// counted.
type quotaCount struct {
	n, level int32
	// awaited marks a target the early stop waits for (see quotaState).
	awaited bool
}

// admits reports whether one more arrival at BFS level `level` is within
// quota q.
//
//pathalgebra:hotpath
func (c quotaCount) admits(q core.Quota, level int) bool {
	return int(c.n) < q.K || (q.ByLength && int(c.level) == level)
}

// count records an admitted arrival and reports whether it filled the
// quota: the K-th path, or the first path of the K-th distinct level.
//
//pathalgebra:hotpath
func (c *quotaCount) count(q core.Quota, level int) bool {
	if q.ByLength && c.n > 0 && int(c.level) == level {
		return false
	}
	c.n++
	c.level = int32(level)
	return int(c.n) == q.K
}

// quotaState is one worker's bookkeeping for a search under a selector
// quota, reset per source. A source's BFS discovers the paths of each
// (source, target) pair in ascending length, so a caller that keeps the
// first K paths — or the K smallest lengths — of every pair keeps a
// per-pair prefix of the discovery order, and the search may skip
// everything past that prefix without changing what the caller ends up
// with, or its order. It skips in three ways:
//
//   - emission cut: a path to a target whose quota is full is never
//     materialized (targets);
//   - state pruning, Walk only: a (node, NFA state) product state is not
//     expanded again once K visitors (K distinct visit levels) were — a
//     later visitor p′ reaches every target through the same suffixes as
//     those K earlier, no longer visitors, so each p′·w is preceded by K
//     paths (lengths) to the same target and is cut anyway (states).
//     Under the other semantics a suffix's admissibility depends on the
//     prefix, so nothing dominates;
//   - early stop, all but Walk (whose pruned frontier drains by itself):
//     every restricted path is a walk, so the targets a product BFS
//     reaches within MaxLen are the only ones that can ever receive a
//     path — minus the source itself under Acyclic. Once each of them is
//     full the source is finished (open, done). The BFS costs about what
//     a search that cuts nothing costs, so it runs only once the cut has
//     dropped as many paths as the search kept (see evalSource). The BFS
//     is the one Reach runs (productBFS).
//
// All of it costs what the source touches: the BFS's visited bitset,
// sized by the graph, is pooled and cleared word by word (productBFS).
type quotaState struct {
	targets map[graph.NodeID]quotaCount
	states  []map[graph.NodeID]quotaCount // per NFA state, like evalScratch.visited
	// armed says the early stop is on; open counts the awaited targets
	// whose quota is not full yet; done latches when the last one fills.
	armed, done bool
	open        int
	// suppressed and pruned count the result paths not materialized and
	// the product-state visitors not expanded.
	suppressed, pruned int64
}

// begin resets the bookkeeping for a new source of a search over an
// automaton with the given number of states.
func (qs *quotaState) begin(states int) {
	if qs.targets == nil {
		qs.targets = make(map[graph.NodeID]quotaCount)
		qs.states = make([]map[graph.NodeID]quotaCount, states)
		for s := range qs.states {
			qs.states[s] = make(map[graph.NodeID]quotaCount)
		}
	}
	clear(qs.targets)
	for _, m := range qs.states {
		clear(m)
	}
	qs.armed, qs.done, qs.open, qs.suppressed, qs.pruned = false, false, 0, 0, 0
}

// arm turns the early stop on, between two BFS levels: it marks every
// target src can reach at all as awaited and counts those not full yet.
// It runs once per source, so each accepted node is new to it.
func (qs *quotaState) arm(g *graph.Graph, c *CompiledNFA, sem core.Semantics, q core.Quota, maxLen int, src graph.NodeID, bud *core.Budget, back bool) error {
	bfs := bfsPool.Get().(*productBFS)
	defer bfsPool.Put(bfs)
	if err := bfs.run(g, c, src, maxLen, bud, back); err != nil {
		return err
	}
	for _, a := range bfs.accepted {
		if sem == core.Acyclic && a.node == src {
			continue
		}
		tc := qs.targets[a.node]
		tc.awaited = true
		qs.targets[a.node] = tc
		if int(tc.n) < q.K {
			qs.open++
		}
	}
	qs.armed, qs.done = true, qs.open == 0
	return nil
}

// emitted records a result path of the given length to dst, whose counter
// the caller looked up as tc.
func (qs *quotaState) emitted(q core.Quota, dst graph.NodeID, tc quotaCount, length int) {
	if tc.count(q, length) && tc.awaited {
		qs.open--
		qs.done = qs.open == 0
	}
	qs.targets[dst] = tc
}

// shard is one source node's slice of the result: the admitted paths in
// per-source discovery order, plus the cumulative result count at the end
// of each BFS depth so the merge can interleave shards in the sequential
// (depth, source) order.
type shard struct {
	set    *pathset.Set
	levels []int
	err    error
}

func evalSearch(g *graph.Graph, c *CompiledNFA, sem core.Semantics, lim core.Limits, bud *core.Budget, workers int, seeds []graph.NodeID, count int, back bool, quota core.Quota, sp *obs.Span) (*pathset.Set, error) {
	shards := make([]*shard, count)
	perr := runSharded(sp, count, workers,
		func(wsp *obs.Span) *evalScratch { return newEvalScratch(c.nfa.NumStates(), wsp) },
		func(sc *evalScratch, i int) bool {
			sh := evalSource(g, c, sem, lim, seedAt(seeds, i), bud, sc, back, quota)
			shards[i] = sh
			sc.span.AddInt("sources", 1)
			sc.span.AddInt("paths", int64(sh.set.Len()))
			sc.span.MaxInt("arena_bytes", int64(sc.arena.Bytes()))
			if quota.K > 0 {
				sp.AddInt("suppressed", sc.quota.suppressed)
				sp.AddInt("pruned", sc.quota.pruned)
				sp.MaxInt("stop_depth", int64(max(len(sh.levels)-1, 0)))
			}
			return sh.err == nil
		})
	if perr != nil {
		return nil, fmt.Errorf("automaton: %w", perr)
	}
	out, err := mergeShardsTraced(sp, shards)
	if err != nil {
		return out, fmt.Errorf("automaton: %w", err)
	}
	return out, nil
}

// mergeShardsTraced wraps the deterministic shard merge in its own
// span so trace trees show merge cost beside the shard searches.
func mergeShardsTraced(sp *obs.Span, shards []*shard) (*pathset.Set, error) {
	msp := sp.Start("merge")
	defer msp.End()
	out, err := mergeShards(shards)
	if out != nil {
		msp.SetInt("paths", int64(out.Len()))
	}
	return out, err
}

// evalSource runs the product search seeded at one source node. Budget
// accounting matches the sequential search exactly: every admitted result
// path charges ChargePath (1 path + Len+1 work — including the length-zero
// seed path when the automaton accepts the empty word), and every visited
// mark that extends the frontier charges ChargeWork. Under a quota (K > 0)
// the search additionally skips what quotaState proves the caller drops;
// skipped paths and states charge nothing.
func evalSource(g *graph.Graph, c *CompiledNFA, sem core.Semantics, lim core.Limits, src graph.NodeID, bud *core.Budget, sc *evalScratch, back bool, quota core.Quota) *shard {
	nfa := c.nfa
	// The zero Set defers its index allocation until the first Add, so
	// sources admitting no paths cost no map allocation.
	sh := &shard{set: new(pathset.Set)}
	// Tombstoned sources admit nothing — not even the zero-length path an
	// empty-word-accepting NFA would otherwise seed.
	if !g.NodeAlive(src) {
		return sh
	}
	a := sc.arena
	a.Reset()
	for _, v := range sc.visited {
		v.Reset()
	}
	seed := a.Leaf(src)
	sc.visited[0].Add(seed)
	frontier := append(sc.frontier[:0], searchItem{ref: seed, state: 0})
	next := sc.next[:0]
	finish := func(err error) *shard {
		sh.err = err
		sh.levels = append(sh.levels, sh.set.Len())
		sc.frontier, sc.next = frontier, next
		return sh
	}
	qs := &sc.quota
	limited := quota.K > 0
	prune := limited && sem == core.Walk
	if limited {
		qs.begin(nfa.NumStates())
	}
	if nfa.AcceptsEmpty() {
		sh.set.AddArena(a, seed)
		if !bud.ChargePath(0) {
			return finish(chargeErr(bud))
		}
		if limited {
			qs.emitted(quota, src, quotaCount{}, 0)
		}
	}
	sh.levels = append(sh.levels, sh.set.Len())
	// A length quota fills at the first path of a level and the rest of
	// that level still belongs to it, so it stops between levels; a path
	// quota stops at the filling path.
	for len(frontier) > 0 && !qs.done {
		sc.span.MaxInt("max_frontier", int64(len(frontier)))
		next = next[:0]
		for _, it := range frontier {
			// Poll cancellation once per frontier item: rejected extensions
			// charge nothing, so charge failures alone would not bound the
			// abort latency on reject-heavy searches.
			if bud.Cancelled() {
				return finish(chargeErr(bud))
			}
			if lim.MaxLen > 0 && a.PathLen(it.ref) >= lim.MaxLen {
				continue
			}
			sc.runs = scanRuns(sc.runs, g, c, a.Last(it.ref), it.state, back)
			for _, rs := range sc.runs {
				targets := rs.targets
				for _, eid := range rs.edges {
					dst := stepNode(g, eid, back)
					extend, admitOK := classifyExtend(sem, a, it.ref, eid, dst)
					if !extend && !admitOK {
						continue
					}
					// Speculative O(1) extension, shared by every target
					// state; rolled back below if nothing retains it.
					mark := a.Len()
					np := a.Extend(it.ref, eid, dst)
					npLen := a.PathLen(np)
					kept := false
					// One path is one answer however many accepting states
					// it reaches.
					answered := !admitOK
					for _, q := range targets {
						if !answered && nfa.Accepting(q) {
							answered = true
							var tc quotaCount
							if limited {
								tc = qs.targets[dst]
							}
							switch {
							case limited && !tc.admits(quota, npLen):
								qs.suppressed++
							case addResult(sh.set, a, np, back):
								if !bud.ChargePath(npLen) {
									return finish(chargeErr(bud))
								}
								if limited {
									qs.emitted(quota, dst, tc, npLen)
									if qs.done && !quota.ByLength {
										return finish(nil)
									}
								}
							}
						}
						if !extend {
							continue
						}
						var visits quotaCount
						if prune {
							visits = qs.states[q][dst]
							if !visits.admits(quota, npLen) {
								qs.pruned++
								continue
							}
						}
						if sc.visited[q].Add(np) {
							if !bud.ChargeWork(npLen) {
								return finish(chargeErr(bud))
							}
							if prune {
								visits.count(quota, npLen)
								qs.states[q][dst] = visits
							}
							next = append(next, searchItem{ref: np, state: q})
							kept = true
						}
					}
					if !kept {
						a.TruncateTo(mark)
					}
				}
			}
		}
		frontier, next = next, frontier
		sh.levels = append(sh.levels, sh.set.Len())
		// Arming costs one product BFS: worth it once the cut drops at
		// least as much as the search keeps, which is when stopping early
		// has something to save. Walk needs none — its frontier drains.
		if limited && !prune && !qs.armed && qs.suppressed > 0 && qs.suppressed >= int64(sh.set.Len()) {
			if err := qs.arm(g, c, sem, quota, lim.MaxLen, src, bud, back); err != nil {
				sh.err = err
				break
			}
		}
	}
	sc.frontier, sc.next = frontier, next
	return sh
}

// mergeShards concatenates the shard results in the sequential discovery
// order: for each BFS depth in ascending order, each source's admissions
// at that depth, sources ascending. This is exactly the insertion order of
// the single-threaded global search (its frontier stays source-major
// sorted at every depth), so downstream order-sensitive operators — group
// construction, rank tie-breaking, ANY-style selector picks — see
// identical inputs whatever the worker count. Shards skipped after a
// budget failure are nil; the first error in source order is returned.
func mergeShards(shards []*shard) (*pathset.Set, error) {
	maxDepth := 0
	for _, sh := range shards {
		if sh != nil && len(sh.levels) > maxDepth {
			maxDepth = len(sh.levels)
		}
	}
	// Shards are disjoint (paths partition by first node) and internally
	// deduped, so the merge concatenates per-depth slices and indexes each
	// path once instead of re-running duplicate elimination.
	var groups [][]path.Path
	for d := 0; d < maxDepth; d++ {
		for _, sh := range shards {
			if sh == nil || d >= len(sh.levels) {
				continue
			}
			lo := 0
			if d > 0 {
				lo = sh.levels[d-1]
			}
			if g := sh.set.Paths()[lo:sh.levels[d]]; len(g) > 0 {
				groups = append(groups, g)
			}
		}
	}
	out := pathset.FromOrderedDisjoint(groups)
	for _, sh := range shards {
		if sh != nil && sh.err != nil {
			return out, sh.err
		}
	}
	return out, nil
}

// classifyExtend decides, for the admissible frontier path r about to be
// extended by edge e to node dst, whether the extension may keep growing
// (extend) and whether it is an answer at an accepting state (admitOK; the
// caller still ANDs in acceptance). It is the incremental counterpart of
// the per-path restrictor predicates: because every frontier path is
// admissible-for-extension by induction — prefixes of trails are trails,
// prefixes of acyclic paths are acyclic, and proper prefixes of simple
// paths are acyclic (the cycle may only close at the very end) — one walk
// up r's parent chain decides both answers with no allocation.
//
// The same classification serves the backward search unchanged: all five
// semantics are reversal-symmetric (a reversed trail is a trail, a
// reversed acyclic path acyclic, and Simple's closing-node exception maps
// first↔last, which is exactly the dst == First(r) test on the reversed
// chain).
//
//pathalgebra:hotpath
func classifyExtend(sem core.Semantics, a *path.Arena, r path.Ref, e graph.EdgeID, dst graph.NodeID) (extend, admitOK bool) {
	switch sem {
	case core.Walk:
		return true, true
	case core.Trail:
		ok := !a.ContainsEdge(r, e)
		return ok, ok
	case core.Acyclic:
		ok := !a.ContainsNode(r, dst)
		return ok, ok
	case core.Simple:
		if !a.ContainsNode(r, dst) {
			return true, true
		}
		// dst repeats: admissible only as the closing node of a cycle.
		return false, dst == a.First(r)
	default:
		return false, false
	}
}

// chargeErr resolves the typed error behind a failed budget charge — the
// cancellation cause or core.ErrBudgetExceeded (the fallback is
// defensive: a charge only fails over-limit or cancelled).
func chargeErr(bud *core.Budget) error {
	if err := bud.Err(); err != nil {
		return err
	}
	return core.ErrBudgetExceeded
}
