package opt

import (
	"pathalgebra/internal/automaton"
	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/rpq"
)

// ReachMode names the path-free answer a caller wants from a plan: a
// property of the result's endpoint pairs rather than of its path bodies.
// The product BFS (automaton.Reach) computes endpoint pairs and minimal
// accepted-walk lengths without materializing any path, so a plan may
// route to it exactly when the requested answer is invariant under
// erasing path bodies — AnalyzeReach decides that.
type ReachMode uint8

const (
	// ReachExists asks whether the result set is non-empty.
	ReachExists ReachMode = iota
	// ReachPairs asks for the set of distinct (source, target) endpoint
	// pairs of the result's paths.
	ReachPairs
	// ReachCountPairs asks for the number of distinct endpoint pairs —
	// the γST partition count.
	ReachCountPairs
	// ReachCountPaths asks for the number of paths. Path counts are NOT
	// invariant under body erasure (two parallel edges are two paths with
	// one endpoint pair), so this mode is never kernel-eligible;
	// AnalyzeReach always rejects it and callers must enumerate.
	ReachCountPaths
	// ReachShortestLengths asks, per endpoint pair, for the minimal path
	// length in the result.
	ReachShortestLengths
)

// String names the mode for explain output and cache keys.
func (m ReachMode) String() string {
	switch m {
	case ReachExists:
		return "exists"
	case ReachPairs:
		return "pairs"
	case ReachCountPairs:
		return "count-pairs"
	case ReachCountPaths:
		return "count-paths"
	case ReachShortestLengths:
		return "shortest-lengths"
	default:
		return "ReachMode(?)"
	}
}

// ReachPlan is the kernel-shaped residue of an eligible plan: the kernel,
// the product BFS of automaton.Reach, evaluates (Pattern)+ from the nodes
// satisfying SeedConds towards the nodes satisfying TargetConds and
// reports endpoint pairs (with minimal lengths). Nil cond slices mean
// unrestricted.
type ReachPlan struct {
	// Pattern is the recursion base as a regular path expression; the
	// kernel's automaton is built over (Pattern)+.
	Pattern rpq.Expr
	// NFA is the Glushkov automaton of (Pattern)+, built once by Derive.
	NFA *automaton.NFA
	// Sem is the recursion's path semantics (Walk or Shortest — the two
	// the analysis admits). It does not change the kernel's answer (both
	// share endpoint pairs and minimal lengths under a common MaxLen);
	// it is kept for reporting.
	Sem core.Semantics
	// SeedConds are the first-endpoint conjuncts restricting sources.
	SeedConds []cond.Cond
	// TargetConds are the last-endpoint conjuncts restricting targets.
	TargetConds []cond.Cond
}

// AnalyzeReach decides whether a physical plan may be answered by the
// product BFS for the given mode, and extracts the kernel plan if
// so (Derivation.Reach). The analysis is deliberately conservative — it
// recognizes exactly the shapes whose mode-answer is provably invariant
// under erasing path bodies, and rejects everything else (the engine then
// enumerates):
//
//   - ϕSem(pattern) with Sem ∈ {Walk, Shortest}: the recursion is the RPQ
//     (pattern)+; its endpoint pairs and per-pair minimal lengths are
//     exactly the kernel's BFS answer under the shared MaxLen. Trail,
//     Acyclic and Simple are rejected: although their endpoint pairs
//     coincide with Walk's in the uncapped case (a minimal walk repeats no
//     node), the interaction with MaxPaths-truncated enumeration fallbacks
//     has not been pinned down, and conservatism is the contract here.
//   - σc(ϕSem(pattern)) where every conjunct of c touches a single
//     endpoint: first-node conjuncts restrict seeds, last-node conjuncts
//     restrict targets. A conjunct over interior nodes or edges would
//     depend on path bodies, so any such residue rejects the plan.
//   - π(*,*,*)(τ…(γψ(X))) over an eligible X: an all-bounds projection
//     returns every path of X regardless of grouping and ordering, so the
//     pipeline is the identity on the path set.
//   - π(*,*,1)(τ…A…(γST(X))) over an eligible X — the ANY SHORTEST shape:
//     grouping by (source, target) and projecting one path per group in
//     ascending length order keeps exactly one minimal-length path per
//     endpoint pair. Pairs, pair counts, existence and minimal lengths
//     all survive the truncation. The path bound must be ascending and
//     some order-by in the chain must rank paths by length (OrderPath);
//     otherwise the kept path is rank-arbitrary, not shortest — rejected.
//
// ReachCountPaths is rejected for every shape: even the recursion alone
// distinguishes parallel multigraph edges the kernel cannot see.
func AnalyzeReach(plan core.PathExpr, mode ReachMode) (ReachPlan, bool) {
	return Derive(plan).Reach(mode)
}

// reachOf is the root rule of the derivation that AnalyzeReach documents:
// the kernel plan of n, nil when no mode may route to the kernel.
func reachOf(n *Node) *ReachPlan {
	if p, ok := n.Path.(core.Project); ok {
		if !kernelProjection(p) {
			return nil
		}
		if n = pathInput(n); n == nil {
			return nil
		}
	}
	var ends *Ends
	if _, ok := n.Path.(core.Select); ok {
		if n.Ends == nil || len(n.Ends.Rest) > 0 {
			// Not over a pattern recursion, or a conjunct reads path bodies.
			return nil
		}
		ends, n = n.Ends, n.In[0]
	}
	rec, pat, ok := n.patternRec()
	if !ok || (rec.Sem != core.Walk && rec.Sem != core.Shortest) {
		return nil
	}
	rp := &ReachPlan{Pattern: pat.Expr, NFA: n.Search.NFA, Sem: rec.Sem}
	if rec.Dir == core.Backward {
		// The search runs the reversed automaton; the kernel the forward one.
		rp.NFA = automaton.Build(rpq.Plus{In: pat.Expr})
	}
	if ends != nil {
		rp.SeedConds, rp.TargetConds = ends.First, ends.Last
	}
	return rp
}

// kernelProjection classifies a projection pipeline as the identity
// (all-bounds) or the ANY SHORTEST truncation. Both preserve pairs, pair
// counts, existence and minimal lengths — everything the admitted modes
// read.
func kernelProjection(p core.Project) bool {
	if !p.Parts.All || p.Parts.Desc || !p.Groups.All || p.Groups.Desc {
		return false
	}
	gb, ok := core.BottomGroupBy(p.In)
	if !ok {
		return false
	}
	switch {
	case p.Paths.All && !p.Paths.Desc:
		// π(*,*,*): identity on the path set, any group key.
		return true
	case !p.Paths.All && p.Paths.N == 1 && !p.Paths.Desc:
		// π(*,*,1): one path per group. Kernel-shaped only when the
		// partitions are exactly the endpoint pairs and paths are ranked
		// by length somewhere in the order-by chain — otherwise the kept
		// path is rank-arbitrary, not shortest.
		return gb.Key == core.GroupSource|core.GroupTarget && orderChainRanksPaths(p.In)
	default:
		return false
	}
}

// orderChainRanksPaths reports whether some τ in the chain above the
// bottom GroupBy carries the OrderPath component. Order-by composition
// makes this sufficient: every OrderPath application sets path rank to
// Len(p) (idempotent), and applications without OrderPath leave path
// ranks untouched, so one occurrence anywhere pins rank = length.
func orderChainRanksPaths(e core.SpaceExpr) bool {
	for {
		ord, ok := e.(core.OrderBy)
		if !ok {
			return false
		}
		if ord.Key&core.OrderPath != 0 {
			return true
		}
		e = ord.In
	}
}

// LabelPattern converts a base expression built from label-equality
// selections over Edges(G), joins and unions into the equivalent regular
// path expression (Pattern.Expr); ok is false for any other shape.
func LabelPattern(x core.PathExpr) (rpq.Expr, bool) {
	p := annotate(x).Pattern
	if p == nil {
		return nil, false
	}
	return p.Expr, true
}
