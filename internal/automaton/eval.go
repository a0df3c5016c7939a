package automaton

import (
	"context"
	"fmt"

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
	// Seeds must be ascending and duplicate-free — the result interleaves
	// the seeds' paths in list order (byLength), so an ascending list
	// reproduces exactly the relative order of the corresponding unseeded
	// evaluation.
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
// returns the results in the order of one global breadth-first search
// (byLength).
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

// symbolScan is one run of the adjacency scanRuns returns that the state
// can read — positions lo..hi-1 of it — paired with its target states.
// It carries offsets, not slices: the edges and their far ends are read
// from the one Adjacency the whole scan shares.
type symbolScan struct {
	lo, hi  int32
	targets []StateID
}

// scanRuns returns n's adjacency — the in-adjacency when back is set — and
// fills dst (reused scratch) with its label-homogeneous runs readable from
// state s, paired with their target states, in ascending symbol order. It
// picks the cheaper driver per call: iterate the node's runs when the
// state reads every symbol (any-label) or more symbols than the node has
// runs, else iterate the state's symbol set with a binary-search lookup
// per symbol. Both drivers enumerate the same intersection in the same
// order, so the choice never affects results.
//
//pathalgebra:hotpath
func scanRuns(dst []symbolScan, g *graph.Graph, c *CompiledNFA, n graph.NodeID, s StateID, back bool) ([]symbolScan, graph.Adjacency) {
	dst = dst[:0]
	var adj graph.Adjacency
	if back {
		adj = g.InRuns(n)
	} else {
		adj = g.OutRuns(n)
	}
	syms := c.StateSymbols(s)
	if c.AllSymbols(s) || len(syms) >= len(adj.Runs) {
		for _, run := range adj.Runs {
			if targets := c.Trans(s, run.Sym); len(targets) > 0 {
				dst = append(dst, symbolScan{lo: run.Lo, hi: run.Hi, targets: targets})
			}
		}
		return dst, adj
	}
	for _, sym := range syms {
		if run, ok := adj.Find(sym); ok {
			dst = append(dst, symbolScan{lo: run.Lo, hi: run.Hi, targets: c.Trans(s, sym)})
		}
	}
	return dst, adj
}

// searchItem is one product-search state: an arena path handle plus the
// NFA state reached by reading its label word.
type searchItem struct {
	ref   path.Ref
	state StateID
}

// evalScratch is one search's working storage: the path arena, frontier
// slices and the RefSets survive across the sources (the arena resets
// between sources, which keeps refs 32-bit and makes per-source cleanup a
// slice truncation). Paths record their start node, so (path, state)
// pairs from different source nodes can never collide and per-source
// visited sets partition the global mark set exactly. A deterministic
// automaton generates each (path, state) pair once, and so each path
// once, so it gets no RefSets at all.
type evalScratch struct {
	arena          *path.Arena
	frontier, next []searchItem
	runs           []symbolScan
	visited        []*path.RefSet // per NFA state; nil when c is deterministic
	answered       *path.RefSet   // the source's result paths; nil when c is deterministic
	// out holds every source's result paths, in source order and each
	// source's ascending by length, in chunks that are never copied to
	// grow; n counts them, and slab backs their node and edge arrays.
	out   [][]path.Path
	n     int
	slab  path.Slab
	quota quotaState // used only under an EvalOptions.Quota
	span  *obs.Span  // the search span; nil when untraced
}

func newEvalScratch(c *CompiledNFA, sp *obs.Span) *evalScratch {
	a := path.NewArena(0)
	sc := &evalScratch{arena: a, span: sp}
	if !c.deterministic {
		sc.visited = make([]*path.RefSet, c.nfa.NumStates())
		for s := range sc.visited {
			sc.visited[s] = path.NewRefSet(a)
		}
		sc.answered = path.NewRefSet(a)
	}
	return sc
}

// admit appends the arena path at r to the result unless this source
// already answered it — a nondeterministic automaton may generate one
// path in several states — and reports whether it did. A backward chain
// holds its path last-node-first, so it materializes reversed, with the
// canonical forward fingerprint.
func (sc *evalScratch) admit(r path.Ref, back bool) bool {
	if sc.answered != nil && !sc.answered.Add(r) {
		return false
	}
	a := sc.arena
	var p path.Path
	if back {
		p = a.ReversedPathSlab(r, &sc.slab, a.ReversedFingerprint(r))
	} else {
		p = a.PathSlab(r, &sc.slab)
	}
	if k := len(sc.out); k == 0 || len(sc.out[k-1]) == cap(sc.out[k-1]) {
		// Chunks of 64, 128, 256 and then 512 paths stay small objects:
		// growing one slice instead copies every path about once more,
		// under write barriers while the collector marks.
		sc.out = append(sc.out, make([]path.Path, 0, 64<<min(k, 3)))
	}
	last := &sc.out[len(sc.out)-1]
	*last = append(*last, p)
	sc.n++
	return true
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
//     expanded. The same BFS, run backward from the open targets, says
//     which (see sweep); it runs again whenever an awaited target has
//     filled since the last sweep.
//
// All of it costs what the source touches: the BFS's distance table,
// sized by the graph, is pooled and cleared through the entries a sweep
// set.
type quotaState struct {
	targets map[graph.NodeID]quotaCount
	states  []map[graph.NodeID]quotaCount // per NFA state, like evalScratch.visited
	// armed says the early stop is on; open counts the awaited targets
	// whose quota is not full yet; done latches when the last one fills.
	armed, done bool
	open        int
	awaited     []graph.NodeID // the awaited targets, in arming order
	// filled says an awaited target filled since the last goal sweep;
	// swept says bfs holds a goal sweep of this source.
	filled, swept bool
	bfs           *productBFS    // from bfsPool on the first arming of a search
	starts        []productState // a goal sweep's starts
	// suppressed and pruned count the result paths not materialized and
	// the product-state visitors not expanded; goalPruned the frontier
	// paths the goal sweep dropped, goalSweeps the sweeps.
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
func (qs *quotaState) arm(g *graph.Graph, c *CompiledNFA, sem core.Semantics, q core.Quota, maxLen int, src graph.NodeID, bud *core.Budget, back bool) error {
	if qs.bfs == nil {
		qs.bfs = bfsPool.Get().(*productBFS)
	}
	if err := qs.bfs.run(g, c, []productState{{node: src}}, maxLen, bud, back); err != nil {
		return err
	}
	for _, a := range qs.bfs.accepted(c.nfa, src) {
		tc := qs.targets[a.node]
		if tc.awaited || sem == core.Acyclic && a.node == src {
			continue
		}
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

// sweep runs the goal sweep for a frontier whose paths have the given
// length: the product BFS over the reversed automaton, against the
// search's direction, from the accepting states at every awaited target
// that is not full, to at most maxLen−length edges (any number when
// maxLen <= 0). It leaves in bfs.dist, for every product state (v, s),
// the fewest edges of a nonempty walk from v in state s to an open
// target in an accepting state, 0 when none exists within that depth.
// A frontier path of length L at (v, s) can receive a new answer only by
// such a walk, and only if L + dist(v, s) ≤ MaxLen: the walk distance
// bounds the trail, acyclic and simple distance from below. Quotas only
// fill, so a sweep from before some target filled only prunes less than
// a fresh one would; the length test in reaches keeps a sweep from a
// shallower level sound where no target fills.
func (qs *quotaState) sweep(g *graph.Graph, c *CompiledNFA, q core.Quota, maxLen, length int, bud *core.Budget, back bool) error {
	depth := 0 // unbounded
	if maxLen > 0 {
		depth = maxLen - length
	}
	qs.filled, qs.swept = false, true
	qs.goalSweeps++
	qs.starts = qs.starts[:0]
	for _, t := range qs.awaited {
		if int(qs.targets[t].n) >= q.K {
			continue
		}
		for s := StateID(0); int(s) < c.nfa.NumStates(); s++ {
			if c.nfa.Accepting(s) {
				//lint:ignore budgetcharge run charges every start it is given
				qs.starts = append(qs.starts, productState{node: t, state: s})
			}
		}
	}
	return qs.bfs.run(g, c.rev, qs.starts, depth, bud, !back)
}

// reaches reports whether the last goal sweep lets the frontier path of
// the given length at (v, s) be expanded: some walk of at most
// maxLen−length edges (any length when maxLen <= 0) leads from it to an
// open target.
//
//pathalgebra:hotpath
func (qs *quotaState) reaches(v graph.NodeID, s StateID, length, maxLen int) bool {
	d := int(qs.bfs.dist[int(v)*qs.bfs.states+int(s)])
	return d > 0 && (maxLen <= 0 || length+d <= maxLen)
}

// evalSearch runs the per-source searches in source order, stopping at
// the first error, and orders their results by length.
func evalSearch(g *graph.Graph, c *CompiledNFA, sem core.Semantics, lim core.Limits, bud *core.Budget, seeds []graph.NodeID, count int, back bool, quota core.Quota, sp *obs.Span) (*pathset.Set, error) {
	sc := newEvalScratch(c, sp)
	defer func() {
		if sc.quota.bfs != nil {
			bfsPool.Put(sc.quota.bfs)
		}
	}()
	for i := 0; i < count; i++ {
		// Injected faults surface as panics so the chaos tests exercise the
		// same recovery path as a real evaluator bug.
		if err := fault.Hit("automaton.source"); err != nil {
			panic(err)
		}
		n := sc.n
		depth, err := evalSource(g, c, sem, lim, seedAt(seeds, i), bud, sc, back, quota)
		if err != nil {
			return nil, fmt.Errorf("automaton: %w", err)
		}
		sp.AddInt("paths", int64(sc.n-n))
		if quota.K > 0 {
			sp.AddInt("suppressed", sc.quota.suppressed)
			sp.AddInt("pruned", sc.quota.pruned)
			sp.AddInt("goal_pruned", sc.quota.goalPruned)
			sp.AddInt("goal_sweeps", sc.quota.goalSweeps)
			sp.MaxInt("stop_depth", int64(depth))
		}
	}
	sp.SetInt("arena_bytes", int64(sc.arena.Bytes()))
	msp := sp.Start("merge")
	defer msp.End()
	out := pathset.FromDistinct(byLength(sc.out, sc.n))
	msp.SetInt("paths", int64(out.Len()))
	return out, nil
}

// byLength returns the n paths of chunks stably sorted by length. The
// search appends its sources' results in source order, each ascending by
// length, and a BFS level is a path length, so this is the insertion
// order of one breadth-first search over every source: for each length
// ascending, each source's paths of that length, sources ascending.
// Downstream order-sensitive operators — group construction, rank
// tie-breaking, ANY-style selector picks — observe it. It is a counting
// sort that copies each run of equal lengths as one block; a single chunk
// already in order is returned as it is.
func byLength(chunks [][]path.Path, n int) []path.Path {
	var slot []int // per length: the paths counted, then the next free slot
	sorted, prev := true, 0
	for _, c := range chunks {
		for _, p := range c {
			k := p.Len()
			for len(slot) <= k {
				slot = append(slot, 0)
			}
			slot[k]++
			sorted, prev = sorted && prev <= k, k
		}
	}
	if sorted && len(chunks) == 1 {
		return chunks[0]
	}
	next := 0
	for k, m := range slot {
		slot[k], next = next, next+m
	}
	out := make([]path.Path, n)
	for _, c := range chunks {
		for i := 0; i < len(c); {
			k, j := c[i].Len(), i+1
			for j < len(c) && c[j].Len() == k {
				j++
			}
			slot[k] += copy(out[slot[k]:], c[i:j])
			i = j
		}
	}
	return out
}

// evalSource runs the product search seeded at one source node, appending
// its results to sc.out in discovery order, which is ascending by length.
// It returns the depth the search stopped at: one past its last BFS
// level, or the level of the path whose quota finished the source (0
// with an error). Budget
// accounting matches the sequential search exactly: every admitted result
// path charges ChargePath (1 path + Len+1 work — including the length-zero
// seed path when the automaton accepts the empty word), and every visited
// mark that extends the frontier charges ChargeWork. Under a quota (K > 0)
// the search additionally skips what quotaState proves the caller drops;
// skipped paths and states charge nothing, goal sweeps charge what they
// discover.
func evalSource(g *graph.Graph, c *CompiledNFA, sem core.Semantics, lim core.Limits, src graph.NodeID, bud *core.Budget, sc *evalScratch, back bool, quota core.Quota) (int, error) {
	nfa := c.nfa
	// Tombstoned sources admit nothing — not even the zero-length path an
	// empty-word-accepting NFA would otherwise seed.
	if !g.NodeAlive(src) {
		return 0, nil
	}
	a := sc.arena
	a.Reset()
	for _, v := range sc.visited {
		v.Reset()
	}
	if sc.answered != nil {
		sc.answered.Reset()
	}
	seed := a.Leaf(src)
	if sc.visited != nil {
		sc.visited[0].Add(seed)
	}
	frontier := append(sc.frontier[:0], searchItem{ref: seed, state: 0})
	next := sc.next[:0]
	finish := func(depth int, err error) (int, error) {
		sc.frontier, sc.next = frontier, next
		return depth, err
	}
	first := sc.n // this source's first result
	qs := &sc.quota
	limited := quota.K > 0
	prune := limited && sem == core.Walk
	if limited {
		qs.begin(nfa.NumStates())
	}
	if nfa.AcceptsEmpty() {
		sc.admit(seed, false)
		if !bud.ChargePath(0) {
			return finish(0, chargeErr(bud))
		}
		if limited {
			qs.emitted(quota, src, quotaCount{}, 0)
		}
	}
	// A length quota fills at the first path of a level and the rest of
	// that level still belongs to it, so it stops between levels; a path
	// quota stops at the filling path.
	length := 0
	for ; len(frontier) > 0 && !qs.done; length++ {
		sc.span.MaxInt("max_frontier", int64(len(frontier)))
		next = next[:0]
		for _, it := range frontier {
			// Poll cancellation once per frontier item: rejected extensions
			// charge nothing, so charge failures alone would not bound the
			// abort latency on reject-heavy searches.
			if bud.Cancelled() {
				return finish(0, chargeErr(bud))
			}
			if lim.MaxLen > 0 && length >= lim.MaxLen {
				continue
			}
			if qs.swept && !qs.reaches(a.Last(it.ref), it.state, length, lim.MaxLen) {
				qs.goalPruned++
				continue
			}
			var adj graph.Adjacency
			sc.runs, adj = scanRuns(sc.runs, g, c, a.Last(it.ref), it.state, back)
			for _, rs := range sc.runs {
				targets := rs.targets
				edges, nbrs := adj.Edges[rs.lo:rs.hi], adj.Nbrs[rs.lo:rs.hi]
				for i, eid := range edges {
					dst := nbrs[i]
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
							case sc.admit(np, back):
								if sc.answered != nil {
									kept = true // the answer set holds np's ref
								}
								if !bud.ChargePath(npLen) {
									return finish(0, chargeErr(bud))
								}
								if limited {
									qs.emitted(quota, dst, tc, npLen)
									if qs.done && !quota.ByLength {
										return finish(npLen, nil)
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
							return finish(0, chargeErr(bud))
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
		// Arming costs one product BFS: worth it once the cut drops at
		// least as much as the search keeps, which is when stopping early
		// has something to save. Walk needs none — its frontier drains.
		if limited && !prune && !qs.armed && qs.suppressed > 0 && qs.suppressed >= int64(sc.n-first) {
			if err := qs.arm(g, c, sem, quota, lim.MaxLen, src, bud, back); err != nil {
				return finish(0, err)
			}
		}
		// The next frontier's paths have length+1 edges; a sweep for them
		// is only worth it where one may still be expanded.
		if qs.armed && qs.filled && !qs.done && len(frontier) > 0 && (lim.MaxLen <= 0 || length+1 < lim.MaxLen) {
			if err := qs.sweep(g, c, quota, lim.MaxLen, length+1, bud, back); err != nil {
				return finish(0, err)
			}
		}
	}
	return finish(length, nil)
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
