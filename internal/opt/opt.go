// Package opt implements the planner: the logical plan rewrites of §7.3
// of the paper plus a statistics-driven cost-based layer.
//
// The heuristic rule set (Optimize) needs no statistics:
//
//   - merge-selections: σc1(σc2(x)) → σ(c2 ∧ c1)(x);
//   - pushdown-selection: the Figure 6 rewrite moving selections through
//     unions and (for single-endpoint conjuncts) joins;
//   - drop-redundant-restrict: ρWalk(x) = x, ρSem(ϕSem(x)) = ϕSem(x),
//     ρSem(ρSem(x)) = ρSem(x);
//   - walk-to-shortest: the §7.3 recursion rewrite turning diverging
//     ϕWalk pipelines under shortest-consuming projections into
//     terminating ϕShortest plans, which the product search answers as
//     the Walk search under a one-length quota;
//   - drop-noop-orderby: τ components that cannot affect projection
//     disappear (the §6 τPG-over-γ∅ example).
//
// The cost-based layer (Plan) consults the graph statistics collected at
// build time (graph.Stats) through a CostModel that estimates the
// cardinality of every algebra operator —
// σ selectivity from label counts, ⋈ via the distinct-endpoint-count
// estimate, ϕ via per-symbol fan-out raised to a bounded depth horizon.
// After the heuristic rules, two statistics-driven passes use the
// estimates:
//
//   - reassociate-joins: multi-join chains re-parenthesize by the
//     matrix-chain DP over estimated intermediate cardinalities;
//   - choose-backward: pattern recursions evaluate backward (reversed
//     automaton over in-edges, seeded at path targets) when the target
//     side is estimated cheaper — PathFinder's direction choice.
//
// One derivation sits beside the rewrites and changes no plan: Derive
// walks a physical plan once bottom-up and once top-down and annotates
// every operator with the properties that tell the engine when a cheaper
// physical evaluation returns the same answer. Each consumer reads its
// property instead of recognizing plan shapes itself:
//
//   - the label pattern of a subtree (Node.Pattern, with its first and
//     last label sets) — the choose-backward cost pass, LabelPattern, and
//     the product search that answers ϕ over a pattern (Node.Search, its
//     automaton built once per plan);
//   - the label-index σ forms (Node.Scan) — the engine's index scans and
//     the plan's label footprint (Derivation.Footprint), which the query
//     service's result caches invalidate by; the distinct-endpoint
//     estimate shares the one recognizer;
//   - the endpoint split of σ over a pattern recursion (Node.Ends) — the
//     seeded search for the recursion's direction (σ's Node.Search) and
//     the reach-kernel plan (Derivation.Reach);
//   - the selector quota a π/τ/γ pipeline pushes through σ and ∪
//     (Node.Quota) — the product search's per-pair cut.
//
// The engine's plan cache keeps the derivation beside the plan, so a
// cached plan is never re-derived.
//
// Every cost-based decision is restricted to order-insensitive contexts
// (no truncating projection above), so a wrong estimate can change speed
// but never results — the invariant the randomized differential harness
// in internal/engine enforces. Every rule records its name so tests and
// the CLI -explain flag can show what fired.
package opt

import (
	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
)

// Result is an optimized plan together with the rules that fired, in
// application order.
type Result struct {
	Plan    core.PathExpr
	Applied []string
}

// maxRounds bounds rule application; each round applies every rule once
// over the whole tree, and rewriting stops as soon as a round changes
// nothing.
const maxRounds = 10

// Optimize rewrites the plan to a cheaper equivalent using the heuristic
// rule set alone. The cost-based entry point Plan additionally consults
// graph statistics; Optimize remains the statistics-free baseline (and
// the planner-off engine path).
func Optimize(plan core.PathExpr) Result {
	res := Result{Plan: plan}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, r := range rules {
			p, fired := rewritePath(res.Plan, r.fn)
			if fired {
				res.Plan = p
				res.Applied = append(res.Applied, r.name)
				changed = true
			}
		}
		if !changed {
			return res
		}
	}
	return res
}

type rule struct {
	name string
	fn   func(core.PathExpr) (core.PathExpr, bool)
}

// rules lists the rewrites in application order. Merging runs before
// splitting-based pushdown so stacked selections are normalized first.
var rules = []rule{
	{name: "merge-selections", fn: mergeSelections},
	{name: "pushdown-selection", fn: pushdownSelection},
	{name: "drop-redundant-restrict", fn: dropRedundantRestrict},
	{name: "walk-to-shortest", fn: walkToShortest},
	{name: "drop-noop-orderby", fn: dropNoopOrderBy},
}

// rewritePath applies fn once at every node of the tree, bottom-up,
// rebuilding only along changed spines.
func rewritePath(e core.PathExpr, fn func(core.PathExpr) (core.PathExpr, bool)) (core.PathExpr, bool) {
	var changed bool
	switch x := e.(type) {
	case core.Select:
		in, c := rewritePath(x.In, fn)
		if c {
			x.In, changed = in, true
		}
		e = x
	case core.Join:
		l, cl := rewritePath(x.L, fn)
		r, cr := rewritePath(x.R, fn)
		if cl || cr {
			x.L, x.R, changed = l, r, true
		}
		e = x
	case core.Union:
		l, cl := rewritePath(x.L, fn)
		r, cr := rewritePath(x.R, fn)
		if cl || cr {
			x.L, x.R, changed = l, r, true
		}
		e = x
	case core.Recurse:
		in, c := rewritePath(x.In, fn)
		if c {
			x.In, changed = in, true
		}
		e = x
	case core.Restrict:
		in, c := rewritePath(x.In, fn)
		if c {
			x.In, changed = in, true
		}
		e = x
	case core.Project:
		in, c := rewriteSpace(x.In, fn)
		if c {
			x.In, changed = in, true
		}
		e = x
	}
	if out, fired := fn(e); fired {
		return out, true
	}
	return e, changed
}

func rewriteSpace(e core.SpaceExpr, fn func(core.PathExpr) (core.PathExpr, bool)) (core.SpaceExpr, bool) {
	switch x := e.(type) {
	case core.GroupBy:
		in, c := rewritePath(x.In, fn)
		if c {
			x.In = in
			return x, true
		}
		return x, false
	case core.OrderBy:
		in, c := rewriteSpace(x.In, fn)
		if c {
			x.In = in
			return x, true
		}
		return x, false
	default:
		return e, false
	}
}

// mergeSelections rewrites σc1(σc2(x)) to σ(c2 ∧ c1)(x).
func mergeSelections(e core.PathExpr) (core.PathExpr, bool) {
	outer, ok := e.(core.Select)
	if !ok {
		return e, false
	}
	inner, ok := outer.In.(core.Select)
	if !ok {
		return e, false
	}
	return core.Select{Cond: cond.And{L: inner.Cond, R: outer.Cond}, In: inner.In}, true
}

// pushdownSelection implements the Figure 6 rewrite. A selection over a
// join, union or projection moves toward the data:
//
//   - σc(L ∪ R)  →  σc(L) ∪ σc(R)                     (always valid)
//   - σc(L ⋈ R)  →  σc(L) ⋈ R   when c only constrains the first node
//     (First of a concatenation is First of its left operand)
//   - σc(L ⋈ R)  →  L ⋈ σc(R)   when c only constrains the last node
//
// Conjunctions are split so that pushable conjuncts move independently.
func pushdownSelection(e core.PathExpr) (core.PathExpr, bool) {
	sel, ok := e.(core.Select)
	if !ok {
		return e, false
	}
	switch in := sel.In.(type) {
	case core.Union:
		return core.Union{
			L: core.Select{Cond: sel.Cond, In: in.L},
			R: core.Select{Cond: sel.Cond, In: in.R},
		}, true
	case core.Join:
		first, last, rest := SplitByEndpoint(sel.Cond)
		if len(first) == 0 && len(last) == 0 {
			return e, false
		}
		l := in.L
		if len(first) > 0 {
			l = core.Select{Cond: cond.Conj(first...), In: l}
		}
		r := in.R
		if len(last) > 0 {
			r = core.Select{Cond: cond.Conj(last...), In: r}
		}
		var out core.PathExpr = core.Join{L: l, R: r}
		if len(rest) > 0 {
			out = core.Select{Cond: cond.Conj(rest...), In: out}
		}
		return out, true
	default:
		return e, false
	}
}

// SplitByEndpoint partitions the conjuncts of c into those that only
// constrain the first node, those that only constrain the last node, and
// the rest. Non-conjunctive structure (OR, NOT) stays in rest unless it
// wholly targets one endpoint. Besides the pushdown rewrite, the engine
// uses the split to seed directed product searches: a first-only (last-
// only) conjunct's value on a path is determined by the path's first
// (last) node alone, so it can restrict the seed set of a forward
// (backward) search instead of filtering afterwards.
func SplitByEndpoint(c cond.Cond) (first, last, rest []cond.Cond) {
	for _, conj := range conjuncts(c) {
		switch endpointOf(conj) {
		case endpointFirst:
			first = append(first, conj)
		case endpointLast:
			last = append(last, conj)
		default:
			rest = append(rest, conj)
		}
	}
	return first, last, rest
}

func conjuncts(c cond.Cond) []cond.Cond {
	if a, ok := c.(cond.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []cond.Cond{c}
}

type endpoint uint8

const (
	endpointMixed endpoint = iota
	endpointFirst
	endpointLast
)

// endpointOf classifies a condition as touching only the first node, only
// the last node, or anything else. Only such single-endpoint conditions
// commute with the path join.
func endpointOf(c cond.Cond) endpoint {
	switch c := c.(type) {
	case cond.LabelCmp:
		return endpointOfTarget(c.Target)
	case cond.PropCmp:
		return endpointOfTarget(c.Target)
	case cond.And:
		return combineEndpoints(endpointOf(c.L), endpointOf(c.R))
	case cond.Or:
		return combineEndpoints(endpointOf(c.L), endpointOf(c.R))
	case cond.Not:
		return endpointOf(c.C)
	default:
		return endpointMixed
	}
}

func endpointOfTarget(t cond.Target) endpoint {
	switch t.Kind {
	case cond.TargetFirst:
		return endpointFirst
	case cond.TargetLast:
		return endpointLast
	case cond.TargetNode:
		if t.Pos == 1 {
			return endpointFirst
		}
		return endpointMixed
	default:
		return endpointMixed
	}
}

func combineEndpoints(a, b endpoint) endpoint {
	if a == b {
		return a
	}
	return endpointMixed
}

// dropRedundantRestrict removes restriction operators that cannot filter
// anything:
//
//   - ρWalk(X) = X (Walk admits every path);
//   - ρSem(ϕSem(X)) = ϕSem(X): the recursion's own semantics already
//     guarantees admissibility — including Shortest, where re-taking
//     per-pair minima of a set of per-pair minima is the identity;
//   - ρSem(ρSem(X)) = ρSem(X) (restriction is idempotent).
func dropRedundantRestrict(e core.PathExpr) (core.PathExpr, bool) {
	r, ok := e.(core.Restrict)
	if !ok {
		return e, false
	}
	if r.Sem == core.Walk {
		return r.In, true
	}
	switch in := r.In.(type) {
	case core.Recurse:
		if in.Sem == r.Sem {
			return in, true
		}
	case core.Restrict:
		if in.Sem == r.Sem {
			return in, true
		}
	}
	return e, false
}

// walkToShortest implements the §7.3 recursion rewrite: extended-algebra
// pipelines that only ever consume minimal-length paths can evaluate the
// recursion under Shortest semantics instead of Walk, turning a plan that
// diverges on cyclic graphs into one that always terminates. A product
// search answers ϕShortest as the Walk search under a one-length quota,
// so its result is the in-order subsequence of ϕWalk's: the rewrite keeps
// even the representative ANY SHORTEST picks.
//
// Recognized pipelines (X below is the pattern subtree, whose outermost
// recursion must be ϕWalk):
//
//   - π(_, _, 1)(τA(γST(X)))       ("ANY SHORTEST": one path per
//     endpoint pair, ranked by length)
//   - π(_, 1, _)(τG(γSTL(X)))      ("ALL SHORTEST": first length-group
//     per endpoint pair)
//   - π(1, 1, _)(τG(γL(X)))        (paper's §7.3 example: globally
//     shortest paths)
func walkToShortest(e core.PathExpr) (core.PathExpr, bool) {
	proj, ok := e.(core.Project)
	if !ok {
		return e, false
	}
	ord, ok := proj.In.(core.OrderBy)
	if !ok {
		return e, false
	}
	grp, ok := ord.In.(core.GroupBy)
	if !ok {
		return e, false
	}
	// Descending projections consume the LONGEST paths/groups; those must
	// keep the Walk recursion.
	if proj.Parts.Desc || proj.Groups.Desc || proj.Paths.Desc {
		return e, false
	}
	switch {
	case ord.Key == core.OrderPath && grp.Key == core.GroupST &&
		!proj.Paths.All && proj.Paths.N == 1: // ANY SHORTEST
	case ord.Key == core.OrderGroup && grp.Key == core.GroupSTL &&
		!proj.Groups.All && proj.Groups.N == 1: // ALL SHORTEST
	case ord.Key == core.OrderGroup && grp.Key == core.GroupLength &&
		!proj.Parts.All && proj.Parts.N == 1 &&
		!proj.Groups.All && proj.Groups.N == 1: // globally shortest
	default:
		return e, false
	}
	in, changed := replaceWalkRecursions(grp.In)
	if !changed {
		return e, false
	}
	grp.In = in
	ord.In = grp
	proj.In = ord
	return proj, true
}

// replaceWalkRecursions swaps ϕWalk for ϕShortest in the pattern subtree.
// It only descends through selections, joins and unions — the operators a
// compiled path pattern is made of — and does not cross nested extended
// pipelines.
func replaceWalkRecursions(e core.PathExpr) (core.PathExpr, bool) {
	switch x := e.(type) {
	case core.Recurse:
		if x.Sem == core.Walk {
			x.Sem = core.Shortest
			return x, true
		}
		return x, false
	case core.Select:
		// A selection between the pipeline and the recursion is only safe
		// to cross when it constrains endpoints: filtering by length or
		// interior positions after ϕShortest would see fewer paths than
		// after ϕWalk.
		if !endpointsOnly(x.Cond) {
			return x, false
		}
		in, c := replaceWalkRecursions(x.In)
		x.In = in
		return x, c
	case core.Join:
		l, cl := replaceWalkRecursions(x.L)
		r, cr := replaceWalkRecursions(x.R)
		x.L, x.R = l, r
		return x, cl || cr
	case core.Union:
		l, cl := replaceWalkRecursions(x.L)
		r, cr := replaceWalkRecursions(x.R)
		x.L, x.R = l, r
		return x, cl || cr
	default:
		return e, false
	}
}

// endpointsOnly reports whether the condition touches only the first and
// last nodes of a path (no length tests, no interior positions).
func endpointsOnly(c cond.Cond) bool {
	switch c := c.(type) {
	case cond.LabelCmp:
		return endpointOfTarget(c.Target) != endpointMixed
	case cond.PropCmp:
		return endpointOfTarget(c.Target) != endpointMixed
	case cond.And:
		return endpointsOnly(c.L) && endpointsOnly(c.R)
	case cond.Or:
		return endpointsOnly(c.L) && endpointsOnly(c.R)
	case cond.Not:
		return endpointsOnly(c.C)
	case cond.True:
		return true
	default:
		return false
	}
}

// dropNoopOrderBy removes order-by work that cannot affect projection:
// ranking partitions is a no-op when the group-by key creates a single
// partition (no Source/Target component), and ranking groups is a no-op
// when each partition holds a single group (no Length component). An
// order-by whose every component is a no-op disappears; this is the
// paper's τPG-over-γ∅ example in §6.
func dropNoopOrderBy(e core.PathExpr) (core.PathExpr, bool) {
	proj, ok := e.(core.Project)
	if !ok {
		return e, false
	}
	in, changed := simplifyOrderBy(proj.In)
	if !changed {
		return e, false
	}
	proj.In = in
	return proj, true
}

func simplifyOrderBy(e core.SpaceExpr) (core.SpaceExpr, bool) {
	ord, ok := e.(core.OrderBy)
	if !ok {
		return e, false
	}
	in, innerChanged := simplifyOrderBy(ord.In)
	ord.In = in
	key, ok := groupKeyOf(ord.In)
	if !ok {
		return ord, innerChanged
	}
	newKey := ord.Key
	if key&(core.GroupSource|core.GroupTarget) == 0 {
		newKey &^= core.OrderPartition
	}
	if key&core.GroupLength == 0 {
		newKey &^= core.OrderGroup
	}
	if newKey == ord.Key {
		return ord, innerChanged
	}
	if newKey == 0 {
		return ord.In, true
	}
	ord.Key = newKey
	return ord, true
}

func groupKeyOf(e core.SpaceExpr) (core.GroupKey, bool) {
	switch x := e.(type) {
	case core.GroupBy:
		return x.Key, true
	case core.OrderBy:
		return groupKeyOf(x.In)
	default:
		return 0, false
	}
}
