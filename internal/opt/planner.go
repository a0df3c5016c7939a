package opt

import (
	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
)

// The cost-based planner. Plan runs the heuristic rule set of Optimize and
// then two statistics-driven passes over the tree:
//
//   - reassociate-joins: multi-join chains re-parenthesize by the
//     matrix-chain dynamic program over estimated intermediate
//     cardinalities (path join is associative but not commutative, so
//     only the association order is free);
//   - choose-backward: pattern-shaped recursions evaluate backward —
//     reversed automaton over the in-adjacency, seeded at path targets —
//     when the target side (seed count × first-step fan-out) is
//     estimated cheaper than the source side.
//
// Both passes fire only in order-insensitive contexts: below a projection
// that truncates (π with any non-* bound) the tie-breaking order of the
// solution space is user-visible, and a plan change that reorders result
// construction could change which representative survives. There the
// planner leaves the shape alone — a wrong cost model may change speed,
// never results.
//
// Budget caveat: "never results" holds for successful evaluations. A plan
// that runs under a tight Limits.MaxWork/MaxPaths budget charges work in
// plan-dependent amounts, so a cheaper planned plan can complete where
// the unplanned one trips ErrBudgetExceeded (the cheaper plan finishing
// is the point of planning). Budgets bound resources, they are not part
// of the query's semantics.

const (
	// backwardBias is the advantage factor backward evaluation must show
	// before it is chosen: ties and near-ties stay forward, the
	// well-trodden default.
	backwardBias = 0.75
	// maxChainDP bounds the join-chain length fed to the O(n³) DP.
	maxChainDP = 16
)

// Plan is the cost-based counterpart of Optimize: it needs the target
// graph's statistics (graph.Stats()) and the evaluation limits the plan
// will run under. A nil model (or one without statistics) degrades to the
// heuristic Optimize.
func Plan(plan core.PathExpr, cm *CostModel) Result {
	if cm == nil || cm.Stats == nil {
		return Optimize(plan)
	}
	res := Optimize(plan)
	w := &costWalker{cm: cm}
	res.Plan = w.path(res.Plan, false)
	res.Applied = append(res.Applied, w.applied...)
	return res
}

// costWalker applies the statistics-driven passes with order-sensitivity
// context threaded top-down.
type costWalker struct {
	cm      *CostModel
	applied []string
}

func (w *costWalker) note(name string) {
	for _, n := range w.applied {
		if n == name {
			return
		}
	}
	w.applied = append(w.applied, name)
}

func (w *costWalker) path(e core.PathExpr, sensitive bool) core.PathExpr {
	switch x := e.(type) {
	case core.Select:
		if rec, ok := x.In.(core.Recurse); ok {
			x.In = w.recurse(rec, x.Cond, sensitive)
			return x
		}
		x.In = w.path(x.In, sensitive)
		return x
	case core.Join:
		x.L = w.path(x.L, sensitive)
		x.R = w.path(x.R, sensitive)
		if !sensitive {
			if t, fired := w.reassociate(x); fired {
				w.note("reassociate-joins")
				return t
			}
		}
		return x
	case core.Union:
		x.L = w.path(x.L, sensitive)
		x.R = w.path(x.R, sensitive)
		return x
	case core.Recurse:
		return w.recurse(x, nil, sensitive)
	case core.Restrict:
		x.In = w.path(x.In, sensitive)
		return x
	case core.Project:
		truncating := !(x.Parts.All && x.Groups.All && x.Paths.All)
		x.In = w.space(x.In, sensitive || truncating)
		return x
	default:
		return e
	}
}

func (w *costWalker) space(e core.SpaceExpr, sensitive bool) core.SpaceExpr {
	switch x := e.(type) {
	case core.GroupBy:
		x.In = w.path(x.In, sensitive)
		return x
	case core.OrderBy:
		x.In = w.space(x.In, sensitive)
		return x
	default:
		return e
	}
}

// recurse decides the evaluation direction of one recursion, optionally
// under the selection condition that will seed it, then descends into the
// base for nested joins.
func (w *costWalker) recurse(rec core.Recurse, c cond.Cond, sensitive bool) core.Recurse {
	rec.In = w.path(rec.In, sensitive)
	if sensitive || rec.Dir != core.Forward {
		return rec
	}
	pat := annotate(rec.In).Pattern
	if pat == nil {
		// Not a label pattern: the generic closure evaluates it, and
		// direction has no meaning there.
		return rec
	}
	st := w.cm.Stats
	firstSel, lastSel := 1.0, 1.0
	if c != nil {
		first, last, _ := SplitByEndpoint(c)
		for _, fc := range first {
			firstSel *= w.cm.Selectivity(fc)
		}
		for _, lc := range last {
			lastSel *= w.cm.Selectivity(lc)
		}
	}
	fwdSeeds, fwdFan := endpointCost(st, pat.First, false)
	bwdSeeds, bwdFan := endpointCost(st, pat.Last, true)
	fwdCost := fwdSeeds * firstSel * (1 + fwdFan)
	bwdCost := bwdSeeds * lastSel * (1 + bwdFan)
	if bwdCost < backwardBias*fwdCost {
		rec.Dir = core.Backward
		w.note("choose-backward")
	}
	return rec
}

// endpointCost aggregates seed count and first-step fan-out for one side
// of a pattern: the distinct sources (targets) of the labels the pattern
// can start (end) with, and the average matching degree of those nodes.
func endpointCost(st *graph.Stats, labels LabelSet, backward bool) (seeds, fanout float64) {
	var distinct, edges float64
	if labels.Any {
		sym := &st.Any
		if backward {
			distinct, edges = float64(sym.DistinctDst), float64(sym.Edges)
		} else {
			distinct, edges = float64(sym.DistinctSrc), float64(sym.Edges)
		}
	} else {
		for _, l := range labels.Labels {
			sym := st.SymbolByLabel(l)
			if sym == nil {
				continue
			}
			if backward {
				distinct += float64(sym.DistinctDst)
			} else {
				distinct += float64(sym.DistinctSrc)
			}
			edges += float64(sym.Edges)
		}
	}
	if distinct > float64(st.Nodes) {
		distinct = float64(st.Nodes)
	}
	if distinct <= 0 {
		return 0, 0
	}
	return distinct, edges / distinct
}

// reassociate re-parenthesizes the join chain rooted at j by the
// matrix-chain DP minimizing the summed estimated cardinalities of every
// intermediate join result. Fired is false when the optimum is the shape
// the chain already has.
func (w *costWalker) reassociate(j core.Join) (core.PathExpr, bool) {
	ops := flattenJoin(j, nil)
	n := len(ops)
	if n < 3 || n > maxChainDP {
		return j, false
	}
	card := make([]float64, n)
	dFirst := make([]float64, n)
	dLast := make([]float64, n)
	for i, op := range ops {
		card[i] = w.cm.Card(op)
		dFirst[i] = w.cm.DistinctFirst(op)
		dLast[i] = w.cm.DistinctLast(op)
	}
	type cell struct {
		cost, card float64
		split      int
	}
	tab := make([][]cell, n)
	for i := range tab {
		tab[i] = make([]cell, n)
		tab[i][i] = cell{cost: 0, card: card[i], split: -1}
	}
	for span := 2; span <= n; span++ {
		for i := 0; i+span-1 < n; i++ {
			jj := i + span - 1
			best := cell{cost: -1}
			for k := i; k < jj; k++ {
				out := w.cm.joinCard(tab[i][k].card, tab[k+1][jj].card, dLast[k], dFirst[k+1])
				c := tab[i][k].cost + tab[k+1][jj].cost + out
				if best.cost < 0 || c < best.cost {
					best = cell{cost: c, card: out, split: k}
				}
			}
			tab[i][jj] = best
		}
	}
	var rebuild func(i, jj int) core.PathExpr
	rebuild = func(i, jj int) core.PathExpr {
		if i == jj {
			return ops[i]
		}
		k := tab[i][jj].split
		return core.Join{L: rebuild(i, k), R: rebuild(k+1, jj)}
	}
	out := rebuild(0, n-1)
	if out.String() == j.String() {
		return j, false
	}
	return out, true
}

// flattenJoin lists the operands of a join chain left to right.
func flattenJoin(e core.PathExpr, out []core.PathExpr) []core.PathExpr {
	if j, ok := e.(core.Join); ok {
		out = flattenJoin(j.L, out)
		return flattenJoin(j.R, out)
	}
	return append(out, e)
}
