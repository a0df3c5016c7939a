package automaton

import (
	"context"
	"fmt"
	"sync"

	"pathalgebra/internal/core"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// The product search is copy-free: search states hold path.Ref handles
// into a prefix-sharing arena (see internal/path/arena.go), so
// extending a path is an O(1) arena append, admissibility checks are
// allocation-free parent-chain walks, and a path's node/edge slices are
// materialized exactly once — when it is admitted into the result set.
// Transition dispatch is symbol-interned: the NFA is compiled against the
// graph's label symbol table (CompiledNFA) and the inner loop iterates
// only the adjacency runs whose symbol the current state can read.

// Eval evaluates the regular path query described by the automaton over
// every pair of endpoints in g, returning the matching paths under the
// given semantics. It is the classical product-graph search: search states
// are (path-so-far, NFA state) pairs.
//
// Semantics note: the automaton applies Trail/Acyclic/Simple to the whole
// matched path, which coincides with the algebraic ϕSem(base) for patterns
// whose recursion spans the whole expression (L+, (L1/L2)*, unions of
// such); for concatenations of separately-restricted recursions the
// algebra is by design more permissive (§2.3 applies restrictors per
// query part). Cross-checking tests use patterns of the former shape.
func Eval(g *graph.Graph, nfa *NFA, sem core.Semantics, lim core.Limits) (*pathset.Set, error) {
	return EvalWithOptions(g, nfa, sem, lim, EvalOptions{})
}

// EvalOptions parameterizes EvalWithOptions beyond the classic all-pairs
// forward search.
type EvalOptions struct {
	// Ctx, when cancellable, aborts the evaluation promptly: the search
	// stops at its next budget charge (or frontier item) and the
	// evaluation returns the context's cause, errors.Is-able as
	// context.Canceled / context.DeadlineExceeded. nil means no
	// cancellation (context.Background()).
	Ctx context.Context
	// Deprecated: ignored. The search runs on the caller's goroutine.
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

// EvalWithOptions is the general product search, optionally restricted to
// a seed set and optionally running backward over reversed edges (see
// EvalOptions). It runs one search per seed on the caller's goroutine and
// merges the per-seed results in the order of one global breadth-first
// search (mergeShards).
//
// Panic isolation: a panic inside the search is returned as a typed error
// (errors.Is core.ErrInternal) instead of unwinding the caller's goroutine.
// The search's scratch is private to the call, so nothing shared is left
// poisoned.
func EvalWithOptions(g *graph.Graph, nfa *NFA, sem core.Semantics, lim core.Limits, o EvalOptions) (out *pathset.Set, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("automaton: %w", core.Recovered(r))
		}
	}()
	count := g.NumNodes()
	if o.Seeds != nil {
		count = len(o.Seeds)
	}
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
	return evalSearch(g, c, sem, lim, bud, o.Seeds, count, back, o.Quota, sp)
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
// forward fingerprints. A deterministic automaton's search generates each
// path once, so there it appends without probing.
func addResult(s *pathset.Set, a *path.Arena, r path.Ref, back, distinct bool) bool {
	switch {
	case distinct && back:
		s.AppendArenaReversed(a, r)
		return true
	case distinct:
		s.AppendArena(a, r)
		return true
	case back:
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

// evalScratch is the search's reusable working storage: the path arena,
// frontier slices and the per-state visited RefSets survive across the
// sources (the arena resets between sources, which keeps refs 32-bit and
// makes per-source cleanup a slice truncation). Paths record their start
// node, so (path, state) pairs from different source nodes can never
// collide and per-source visited sets partition the global mark set
// exactly. A deterministic automaton generates each (path, state) pair
// once, so it gets no visited sets at all.
type evalScratch struct {
	arena          *path.Arena
	frontier, next []searchItem
	runs           []symbolScan
	visited        []*path.RefSet // per NFA state; nil when c is deterministic
	quota          quotaState     // used only under an EvalOptions.Quota
	span           *obs.Span      // the search span; nil when untraced
}

func newEvalScratch(c *CompiledNFA, sp *obs.Span) *evalScratch {
	a := path.NewArena(0)
	sc := &evalScratch{arena: a, span: sp}
	if !c.deterministic {
		sc.visited = make([]*path.RefSet, c.nfa.NumStates())
		for s := range sc.visited {
			sc.visited[s] = path.NewRefSet(a)
		}
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

// quotaState is the bookkeeping of a search under a selector quota,
// reset per source. A source's BFS discovers the paths of each
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
//     is the one Reach runs (productBFS);
//   - goal pruning, once armed: a frontier path that no walk short enough
//     leads from to an open target can add nothing, so it is not
//     expanded. The goal table says which (see goalTable); it is swept
//     again whenever an awaited target has filled since the last sweep.
//
// All of it costs what the source touches: the BFS's visited bitset and
// the goal table, both sized by the graph, are pooled and cleared through
// the entries a sweep set.
type quotaState struct {
	targets map[graph.NodeID]quotaCount
	states  []map[graph.NodeID]quotaCount // per NFA state, like evalScratch.visited
	// armed says the early stop is on; open counts the awaited targets
	// whose quota is not full yet; done latches when the last one fills.
	armed, done bool
	open        int
	awaited     []graph.NodeID // the awaited targets, in arming order
	// filled says an awaited target filled since the goal table was last
	// swept; swept says the table holds a sweep of this source.
	filled, swept bool
	goal          *goalTable // from goalPool on the first sweep of a search
	// suppressed and pruned count the result paths not materialized and
	// the product-state visitors not expanded; goalPruned the frontier
	// paths the goal table dropped, goalSweeps the sweeps.
	suppressed, pruned, goalPruned, goalSweeps int64
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
	qs.filled, qs.swept, qs.goalPruned, qs.goalSweeps = false, false, 0, 0
	qs.awaited = qs.awaited[:0]
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
		qs.awaited = append(qs.awaited, a.node)
		if int(tc.n) < q.K {
			qs.open++
		}
	}
	// Arming follows a suppressed path, so some awaited target is full.
	qs.armed, qs.done, qs.filled = true, qs.open == 0, true
	return nil
}

// emitted records a result path of the given length to dst, whose counter
// the caller looked up as tc.
func (qs *quotaState) emitted(q core.Quota, dst graph.NodeID, tc quotaCount, length int) {
	if tc.count(q, length) && tc.awaited {
		qs.open--
		qs.done = qs.open == 0
		qs.filled = true
	}
	qs.targets[dst] = tc
}

// sweep recomputes the goal table for the open targets, for a frontier
// whose paths have the given length.
func (qs *quotaState) sweep(g *graph.Graph, c *CompiledNFA, q core.Quota, maxLen, length int, bud *core.Budget, back bool) error {
	if qs.goal == nil {
		qs.goal = goalPool.Get().(*goalTable)
	}
	depth := 0 // unbounded
	if maxLen > 0 {
		depth = maxLen - length
	}
	qs.filled, qs.swept = false, true
	qs.goalSweeps++
	return qs.goal.sweep(g, c, qs, q, depth, bud, back)
}

// reaches reports whether the goal table lets the frontier path of the
// given length at (v, s) be expanded: some walk of at most maxLen−length
// edges (any length when maxLen <= 0) leads from it to an open target.
//
//pathalgebra:hotpath
func (qs *quotaState) reaches(v graph.NodeID, s StateID, length, maxLen int) bool {
	d := int(qs.goal.dist[int(v)*qs.goal.states+int(s)])
	return d > 0 && (maxLen <= 0 || length+d <= maxLen)
}

// goalPool recycles goal tables across searches, so that the table sized
// by the graph is allocated once, not once per search.
var goalPool = sync.Pool{New: func() any { return new(goalTable) }}

// goalTable holds, for a source under an armed quota, the distance
// dist(v, s) ≥ 1 of every product state from the open targets: the
// fewest edges of a nonempty walk from node v in NFA state s to an open
// awaited target in an accepting state, 0 when none exists within the
// sweep's depth. A frontier path of length L at (v, s) can receive a new
// answer only by such a walk, and only if L + dist(v, s) ≤ MaxLen: the
// walk distance bounds the trail, acyclic and simple distance from
// below. Quotas only fill, so a table swept before some target filled
// only prunes less than a fresh one would; the explicit length test keeps
// a table swept at a shallower level sound where no target fills.
//
// One backward BFS over the reversed product (the reversed automaton,
// against the search's direction) fills it. Like productBFS, the table
// is sized by the graph once and cleared through the entries a sweep
// set, so a sweep costs what it reaches.
type goalTable struct {
	dist           []int32 // indexed by node × states + state
	touched        []int32 // the entries of dist the last sweep set
	states         int
	frontier, next []productState
	runs           []symbolScan
}

// sweep fills the table from the accepting states at every awaited target
// of qs that is not full, to at most depth edges (<= 0: unbounded). Every
// product state it starts from or discovers charges the work budget its
// depth, as productBFS's do.
func (gt *goalTable) sweep(g *graph.Graph, c *CompiledNFA, qs *quotaState, q core.Quota, depth int, bud *core.Budget, back bool) error {
	for _, i := range gt.touched {
		gt.dist[i] = 0
	}
	gt.touched = gt.touched[:0]
	nfa := c.nfa
	gt.states = nfa.NumStates()
	if n := g.NumNodes() * gt.states; len(gt.dist) < n {
		gt.dist = make([]int32, n)
	}
	frontier, next := gt.frontier[:0], gt.next[:0]
	defer func() { gt.frontier, gt.next = frontier, next }()
	for _, t := range qs.awaited {
		if int(qs.targets[t].n) >= q.K {
			continue
		}
		for s := 0; s < gt.states; s++ {
			if !nfa.Accepting(StateID(s)) {
				continue
			}
			if !bud.ChargeWork(0) {
				return chargeErr(bud)
			}
			frontier = append(frontier, productState{node: t, state: StateID(s)})
		}
	}
	for d := 1; len(frontier) > 0 && (depth <= 0 || d <= depth); d++ {
		next = next[:0]
		for _, ps := range frontier {
			if bud.Cancelled() {
				return chargeErr(bud)
			}
			gt.runs = scanRuns(gt.runs, g, c.rev, ps.node, ps.state, !back)
			for _, rs := range gt.runs {
				for _, eid := range rs.edges {
					v := stepNode(g, eid, !back)
					for _, s := range rs.targets {
						i := int(v)*gt.states + int(s)
						if gt.dist[i] != 0 {
							continue
						}
						if !bud.ChargeWork(d) {
							return chargeErr(bud)
						}
						gt.dist[i] = int32(d)
						gt.touched = append(gt.touched, int32(i))
						next = append(next, productState{node: v, state: s})
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	return nil
}

// shard is one source node's slice of the result: the admitted paths in
// per-source discovery order, plus the cumulative result count at the end
// of each BFS depth so the merge can interleave shards in the global
// (depth, source) order.
type shard struct {
	set    *pathset.Set
	levels []int
	err    error
}

// evalSearch runs the per-source searches in source order, stopping at
// the first error, and merges their shards.
func evalSearch(g *graph.Graph, c *CompiledNFA, sem core.Semantics, lim core.Limits, bud *core.Budget, seeds []graph.NodeID, count int, back bool, quota core.Quota, sp *obs.Span) (*pathset.Set, error) {
	sc := newEvalScratch(c, sp)
	defer func() {
		if sc.quota.goal != nil {
			goalPool.Put(sc.quota.goal)
		}
	}()
	shards := make([]*shard, count)
	for i := range shards {
		// Injected faults surface as panics so the chaos tests exercise the
		// same recovery path as a real evaluator bug.
		if err := fault.Hit("automaton.source"); err != nil {
			panic(err)
		}
		sh := evalSource(g, c, sem, lim, seedAt(seeds, i), bud, sc, back, quota)
		if sh.err != nil {
			return nil, fmt.Errorf("automaton: %w", sh.err)
		}
		shards[i] = sh
		sp.AddInt("paths", int64(sh.set.Len()))
		if quota.K > 0 {
			sp.AddInt("suppressed", sc.quota.suppressed)
			sp.AddInt("pruned", sc.quota.pruned)
			sp.AddInt("goal_pruned", sc.quota.goalPruned)
			sp.AddInt("goal_sweeps", sc.quota.goalSweeps)
			sp.MaxInt("stop_depth", int64(max(len(sh.levels)-1, 0)))
		}
	}
	sp.SetInt("arena_bytes", int64(sc.arena.Bytes()))
	msp := sp.Start("merge")
	defer msp.End()
	out := mergeShards(shards)
	msp.SetInt("paths", int64(out.Len()))
	return out, nil
}

// evalSource runs the product search seeded at one source node. Budget
// accounting matches the sequential search exactly: every admitted result
// path charges ChargePath (1 path + Len+1 work — including the length-zero
// seed path when the automaton accepts the empty word), and every visited
// mark that extends the frontier charges ChargeWork. Under a quota (K > 0)
// the search additionally skips what quotaState proves the caller drops;
// skipped paths and states charge nothing, goal sweeps charge what they
// discover.
func evalSource(g *graph.Graph, c *CompiledNFA, sem core.Semantics, lim core.Limits, src graph.NodeID, bud *core.Budget, sc *evalScratch, back bool, quota core.Quota) *shard {
	nfa := c.nfa
	// The zero Set builds its index on the first Add, and under a
	// deterministic automaton never: paths are appended unprobed.
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
	if sc.visited != nil {
		sc.visited[0].Add(seed)
	}
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
		addResult(sh.set, a, seed, false, c.deterministic)
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
	for length := 0; len(frontier) > 0 && !qs.done; length++ {
		sc.span.MaxInt("max_frontier", int64(len(frontier)))
		next = next[:0]
		for _, it := range frontier {
			// Poll cancellation once per frontier item: rejected extensions
			// charge nothing, so charge failures alone would not bound the
			// abort latency on reject-heavy searches.
			if bud.Cancelled() {
				return finish(chargeErr(bud))
			}
			if lim.MaxLen > 0 && length >= lim.MaxLen {
				continue
			}
			if qs.swept && !qs.reaches(a.Last(it.ref), it.state, length, lim.MaxLen) {
				qs.goalPruned++
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
							case addResult(sh.set, a, np, back, c.deterministic):
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
						if sc.visited != nil && !sc.visited[q].Add(np) {
							continue
						}
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
		// The next frontier's paths have length+1 edges; a sweep for them
		// is only worth it where one may still be expanded.
		if qs.armed && qs.filled && !qs.done && len(frontier) > 0 && (lim.MaxLen <= 0 || length+1 < lim.MaxLen) {
			if err := qs.sweep(g, c, quota, lim.MaxLen, length+1, bud, back); err != nil {
				sh.err = err
				break
			}
		}
	}
	sc.frontier, sc.next = frontier, next
	return sh
}

// mergeShards concatenates the shard results in the order of one global
// breadth-first search: for each BFS depth in ascending order, each
// source's admissions at that depth, sources ascending. That search's
// frontier stays source-major sorted at every depth, so this is exactly
// its insertion order, which downstream order-sensitive operators — group
// construction, rank tie-breaking, ANY-style selector picks — observe.
func mergeShards(shards []*shard) *pathset.Set {
	maxDepth, n := 0, 0
	for _, sh := range shards {
		maxDepth = max(maxDepth, len(sh.levels))
		n += sh.set.Len()
	}
	// Shards are disjoint (paths partition by first node) and internally
	// deduped, so the merge concatenates per-depth slices and hashes
	// nothing: the set indexes itself if something probes it.
	ps := make([]path.Path, 0, n)
	for d := 0; d < maxDepth; d++ {
		for _, sh := range shards {
			if d >= len(sh.levels) {
				continue
			}
			lo := 0
			if d > 0 {
				lo = sh.levels[d-1]
			}
			ps = append(ps, sh.set.Paths()[lo:sh.levels[d]]...)
		}
	}
	return pathset.FromDistinct(ps)
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
