package engine

import (
	"context"
	"fmt"
	"sort"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/pathset"
)

// ReachResult is a path-free answer: a property of the plan's result set
// that does not depend on path bodies (see opt.ReachMode). Pairs are
// ascending by (Src, Dst); Lengths, when present, is parallel to Pairs.
// Kernel reports which evaluation route produced the answer — true for
// the product BFS (automaton.Reach), false for plan enumeration followed
// by body erasure. Both routes return identical data.
type ReachResult struct {
	Mode opt.ReachMode
	// Exists is always populated: whether the result set is non-empty.
	Exists bool
	// Count is the distinct endpoint-pair count for ReachCountPairs and
	// the path count for ReachCountPaths; len(Pairs) otherwise.
	Count int
	// Pairs holds the distinct endpoint pairs for ReachPairs and
	// ReachShortestLengths; nil for the scalar modes.
	Pairs []automaton.Pair
	// Lengths is the per-pair minimal path length (ReachShortestLengths).
	Lengths []int32
	// Kernel is true when the product BFS produced the answer.
	Kernel bool
	// Graph and Epoch report the pinned evaluation view (like
	// Stream.Graph/Epoch): Pairs' node IDs were minted at this view and
	// must be rendered against it — compaction may remap IDs in later
	// epochs.
	Graph *graph.Graph
	Epoch uint64
	// Footprint is the label footprint (see PlanFootprint) of the plan
	// evaluated at Epoch.
	Footprint graph.Footprint
}

// Reach plans x like Run and answers the path-free question mode about
// its result set. Eligible plans (opt.AnalyzeReach, read off the plan's
// cached derivation) route to the product BFS — no path is ever
// materialized; everything else falls back to full enumeration with the
// answer derived by erasing bodies.
func (e *Engine) Reach(x core.PathExpr, mode opt.ReachMode) (*ReachResult, error) {
	return e.ReachCtx(context.Background(), x, mode)
}

// ReachCtx is Reach with cooperative cancellation (see RunCtx). On a live
// engine the plan, the eligibility analysis and the evaluation all run
// against one pinned epoch.
func (e *Engine) ReachCtx(ctx context.Context, x core.PathExpr, mode opt.ReachMode) (*ReachResult, error) {
	b, release := e.pin()
	defer release()
	d := b.planTraced(ctx, x).derived
	sp := obs.SpanFrom(ctx).Start("eval")
	defer sp.End()
	sp.SetInt("epoch", int64(b.epoch))
	ctx = obs.WithSpan(ctx, sp)
	var res *ReachResult
	if rp, ok := d.Reach(mode); ok {
		var err error
		if res, err = b.reachKernel(ctx, rp, mode); err != nil {
			e.noteEvalErr(err)
			return nil, fmt.Errorf("engine: reach %s: %w", mode, err)
		}
		addStat(&e.stats.ReachKernelRuns, 1)
		sp.SetInt("kernel", 1)
	} else {
		addStat(&e.stats.ReachFallbacks, 1)
		set, err := b.eval(ctx, d.Root)
		if err != nil {
			e.noteEvalErr(err)
			return nil, err
		}
		res = reachFromSet(set, mode)
	}
	res.Graph, res.Epoch, res.Footprint = b.g, b.epoch, d.Footprint
	return res, nil
}

// reachRoute names the evaluation route a path-free Reach call would
// take for this derived plan — explain output. ReachPairs is the
// representative mode: every kernel-admitted mode shares its eligibility.
func reachRoute(d *opt.Derivation) string {
	if _, ok := d.Reach(opt.ReachPairs); ok {
		return "product-bfs"
	}
	return "enumeration"
}

// reachKernel runs an eligible plan on the product BFS: seeds and targets
// come from the endpoint conjuncts' node sets, the automaton is the one
// derived for the plan. The engine's limits bound the BFS exactly as they
// bound enumeration (shared MaxLen, work and answer budgets).
func (e *Engine) reachKernel(ctx context.Context, rp opt.ReachPlan, mode opt.ReachMode) (*ReachResult, error) {
	pairs, lengths, err := automaton.Reach(e.g, rp.NFA, e.opts.Limits, automaton.ReachOptions{
		Ctx:     ctx,
		Seeds:   e.seedNodes(ctx, rp.SeedConds),
		Targets: e.seedNodes(ctx, rp.TargetConds),
	})
	if err != nil {
		return nil, err
	}
	out := &ReachResult{Mode: mode, Kernel: true, Exists: len(pairs) > 0, Count: len(pairs)}
	switch mode {
	case opt.ReachPairs:
		out.Pairs = pairs
	case opt.ReachShortestLengths:
		out.Pairs, out.Lengths = pairs, lengths
	}
	return out, nil
}

// reachFromSet derives the path-free answer from an enumerated result by
// erasing path bodies: pairs dedup to the kernel's ascending (Src, Dst)
// order, lengths take the per-pair minimum.
func reachFromSet(set *pathset.Set, mode opt.ReachMode) *ReachResult {
	out := &ReachResult{Mode: mode, Exists: set.Len() > 0}
	if mode == opt.ReachCountPaths {
		out.Count = set.Len()
		return out
	}
	minLen := make(map[automaton.Pair]int32, set.Len())
	for _, p := range set.Paths() {
		k := automaton.Pair{Src: p.First(), Dst: p.Last()}
		l := int32(p.Len())
		if old, ok := minLen[k]; !ok || l < old {
			minLen[k] = l
		}
	}
	pairs := make([]automaton.Pair, 0, len(minLen))
	for k := range minLen {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Src != pairs[j].Src {
			return pairs[i].Src < pairs[j].Src
		}
		return pairs[i].Dst < pairs[j].Dst
	})
	out.Count = len(pairs)
	switch mode {
	case opt.ReachPairs:
		out.Pairs = pairs
	case opt.ReachShortestLengths:
		out.Pairs = pairs
		out.Lengths = make([]int32, len(pairs))
		for i, k := range pairs {
			out.Lengths[i] = minLen[k]
		}
	}
	return out
}
