package opt

import (
	"math"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
)

// CostModel estimates operator cardinalities from the graph statistics
// computed at build time (graph.Stats). Estimates are classical
// System-R-style: label selectivities come straight from the per-label
// counts, joins use the distinct-endpoint-count estimate, and recursions
// raise the per-symbol fan-out to a bounded depth. The numbers only ever
// steer plan choice — a wrong estimate can cost speed, never results.
type CostModel struct {
	// Stats is the statistics of the target graph (Graph.Stats).
	Stats *graph.Stats
	// Limits are the evaluation limits the plan will run under; MaxLen
	// bounds the recursion-depth horizon of ϕ estimates.
	Limits core.Limits
}

const (
	// defaultPropSelectivity is the selectivity assumed for property
	// comparisons, about which the statistics know nothing.
	defaultPropSelectivity = 0.1
	// defaultRecursionDepth is the expansion horizon assumed for ϕ
	// estimates when Limits.MaxLen is unset.
	defaultRecursionDepth = 6
	// maxCard caps every estimate so geometric blowups stay comparable
	// instead of overflowing to +Inf.
	maxCard = 1e15
)

// capCard saturates an estimate into [0, maxCard]. NaN maps to maxCard:
// a poisoned estimate (0·Inf and friends, reachable when a deep horizon
// pushes intermediate products past the float range) must compare as
// "expensive", never leak into min/max plan comparisons where every NaN
// comparison is false and the planner's choice turns on operand order.
func capCard(c float64) float64 {
	if math.IsNaN(c) || c > maxCard {
		return maxCard
	}
	if c < 0 {
		return 0
	}
	return c
}

func (cm *CostModel) depthHorizon() int {
	if cm.Limits.MaxLen > 0 {
		return cm.Limits.MaxLen
	}
	return defaultRecursionDepth
}

// estMemo caches per-subtree estimates within one top-level estimation
// call, keyed by the subtree's canonical rendering. Card and the distinct
// endpoint estimates are mutually recursive (the join estimate needs both
// children's cardinalities AND endpoint counts, and an endpoint count is
// capped by its subtree's cardinality), so without memoization a join
// chain of depth n costs O(2^n); with it every distinct subtree is
// estimated once.
type estMemo struct {
	card   map[string]float64
	dFirst map[string]float64
	dLast  map[string]float64
}

func newEstMemo() *estMemo {
	return &estMemo{
		card:   make(map[string]float64),
		dFirst: make(map[string]float64),
		dLast:  make(map[string]float64),
	}
}

// Card estimates the number of paths the expression evaluates to.
func (cm *CostModel) Card(e core.PathExpr) float64 {
	return cm.cardM(e, newEstMemo())
}

func (cm *CostModel) cardM(e core.PathExpr, m *estMemo) float64 {
	if e == nil {
		return float64(cm.Stats.Nodes)
	}
	key := e.String()
	if c, ok := m.card[key]; ok {
		return c
	}
	c := cm.cardUncached(e, m)
	m.card[key] = c
	return c
}

func (cm *CostModel) cardUncached(e core.PathExpr, m *estMemo) float64 {
	st := cm.Stats
	switch x := e.(type) {
	case core.Nodes:
		return float64(st.Nodes)
	case core.Edges:
		return float64(st.Edges)
	case core.Select:
		return capCard(cm.cardM(x.In, m) * cm.Selectivity(x.Cond))
	case core.Join:
		return cm.joinCard(cm.cardM(x.L, m), cm.cardM(x.R, m),
			cm.distinctM(x.L, true, m), cm.distinctM(x.R, false, m))
	case core.Union:
		return capCard(cm.cardM(x.L, m) + cm.cardM(x.R, m))
	case core.Recurse:
		return cm.recurseCard(x, m)
	case core.Restrict:
		in := cm.cardM(x.In, m)
		if x.Sem == core.Shortest {
			pairs := cm.distinctM(x.In, false, m) * cm.distinctM(x.In, true, m)
			if pairs < in {
				return capCard(pairs)
			}
		}
		return in
	case core.Project:
		return cm.projectCard(x, m)
	default:
		return float64(st.Nodes)
	}
}

// joinCard is the distinct-count join estimate |L||R| / max(V(L.last),
// V(R.first)): each last endpoint of L meets |R|/V(R.first) continuations
// on average (and symmetrically), under the usual uniformity assumption.
func (cm *CostModel) joinCard(cl, cr, dLast, dFirst float64) float64 {
	d := dLast
	if dFirst > d {
		d = dFirst
	}
	if d < 1 {
		d = 1
	}
	return capCard(cl * cr / d)
}

// recurseCard estimates ϕSem(In) as a geometric expansion of the base
// set: each closure round multiplies by r = |In| / V(In.first), the
// expected number of base continuations per frontier path, summed to the
// depth horizon. Shortest caps at one path bundle per endpoint pair.
func (cm *CostModel) recurseCard(x core.Recurse, m *estMemo) float64 {
	base := cm.cardM(x.In, m)
	if base == 0 {
		return 0
	}
	dFirst := cm.distinctM(x.In, false, m)
	if dFirst < 1 {
		dFirst = 1
	}
	r := base / dFirst
	// Closed-form geometric sum Σ_{i=0}^{h-1} base·rⁱ. The former
	// term-by-term loop ran depthHorizon()-1 rounds whenever r <= 1
	// (the saturation break never fired), so a plan with a huge
	// Limits.MaxLen stalled the planner for ~MaxLen iterations; the
	// closed form is O(1) at any horizon. Overflow to +Inf (r > 1 at a
	// deep horizon) and the 0·Inf NaN are absorbed by capCard.
	h := float64(cm.depthHorizon())
	var sum float64
	if r == 1 {
		sum = base * h
	} else {
		sum = base * (math.Pow(r, h) - 1) / (r - 1)
	}
	sum = capCard(sum)
	if x.Sem == core.Shortest {
		pairs := cm.distinctM(x.In, false, m) * cm.distinctM(x.In, true, m)
		if pairs < sum {
			sum = pairs
		}
	}
	return capCard(sum)
}

// projectCard estimates π over the grouped space: the inner cardinality
// split across estimated partitions and groups, each level truncated to
// its projection bound.
func (cm *CostModel) projectCard(x core.Project, m *estMemo) float64 {
	inner, key, ok := cm.spaceCard(x.In, m)
	if !ok {
		return inner
	}
	var groupSrc core.PathExpr
	if g, ok := core.BottomGroupBy(x.In); ok {
		groupSrc = g.In
	}
	parts := 1.0
	if key&core.GroupSource != 0 {
		parts *= cm.distinctM(groupSrc, false, m)
	}
	if key&core.GroupTarget != 0 {
		parts *= cm.distinctM(groupSrc, true, m)
	}
	if parts > inner {
		parts = inner
	}
	if parts < 1 {
		parts = 1
	}
	groupsPerPart := 1.0
	if key&core.GroupLength != 0 {
		groupsPerPart = float64(cm.depthHorizon())
	}
	pathsPerGroup := inner / (parts * groupsPerPart)
	if pathsPerGroup < 1 {
		pathsPerGroup = 1
	}
	parts = limitCard(x.Parts, parts)
	groupsPerPart = limitCard(x.Groups, groupsPerPart)
	pathsPerGroup = limitCard(x.Paths, pathsPerGroup)
	return capCard(parts * groupsPerPart * pathsPerGroup)
}

// limitCard applies a projection bound to an estimated element count.
func limitCard(c core.Count, available float64) float64 {
	if c.All || float64(c.N) > available {
		return available
	}
	return float64(c.N)
}

// spaceCard returns the path cardinality feeding a space expression, its
// group key, and whether the space bottoms out in a GroupBy.
func (cm *CostModel) spaceCard(e core.SpaceExpr, m *estMemo) (float64, core.GroupKey, bool) {
	switch x := e.(type) {
	case core.GroupBy:
		return cm.cardM(x.In, m), x.Key, true
	case core.OrderBy:
		return cm.spaceCard(x.In, m)
	default:
		return 0, 0, false
	}
}

// Selectivity estimates the fraction of paths a condition admits.
func (cm *CostModel) Selectivity(c cond.Cond) float64 {
	st := cm.Stats
	switch c := c.(type) {
	case cond.True:
		return 1
	case cond.LabelCmp:
		var s float64
		if c.Target.Kind == cond.TargetEdge {
			if st.Edges > 0 {
				s = float64(st.EdgeLabelCount(c.Value)) / float64(st.Edges)
			}
		} else {
			if st.Nodes > 0 {
				s = float64(st.NodeLabelCount(c.Value)) / float64(st.Nodes)
			}
		}
		if c.Op == cond.NE {
			return 1 - s
		}
		return s
	case cond.PropCmp:
		switch c.Op {
		case cond.EQ:
			return defaultPropSelectivity
		case cond.NE:
			return 1 - defaultPropSelectivity
		default:
			return 1.0 / 3
		}
	case cond.LenCmp:
		if c.Op == cond.EQ {
			return 1 / float64(cm.depthHorizon())
		}
		return 0.5
	case cond.And:
		return cm.Selectivity(c.L) * cm.Selectivity(c.R)
	case cond.Or:
		l, r := cm.Selectivity(c.L), cm.Selectivity(c.R)
		return l + r - l*r
	case cond.Not:
		return 1 - cm.Selectivity(c.C)
	default:
		return 0.5
	}
}

// DistinctFirst estimates the number of distinct first nodes of the
// expression's result; nil estimates over all nodes.
func (cm *CostModel) DistinctFirst(e core.PathExpr) float64 {
	return cm.distinctM(e, false, newEstMemo())
}

// DistinctLast estimates the number of distinct last nodes.
func (cm *CostModel) DistinctLast(e core.PathExpr) float64 {
	return cm.distinctM(e, true, newEstMemo())
}

func (cm *CostModel) distinctM(e core.PathExpr, last bool, m *estMemo) float64 {
	if e == nil {
		return float64(cm.Stats.Nodes)
	}
	cache := m.dFirst
	if last {
		cache = m.dLast
	}
	key := e.String()
	if d, ok := cache[key]; ok {
		return d
	}
	d := cm.distinctEndpoint(e, last, m)
	cache[key] = d
	return d
}

func (cm *CostModel) distinctEndpoint(e core.PathExpr, last bool, m *estMemo) float64 {
	st := cm.Stats
	nodes := float64(st.Nodes)
	var d float64
	switch x := e.(type) {
	case nil:
		d = nodes
	case core.Nodes:
		d = nodes
	case core.Edges:
		if last {
			d = float64(st.Any.DistinctDst)
		} else {
			d = float64(st.Any.DistinctSrc)
		}
	case core.Select:
		d = cm.distinctM(x.In, last, m)
		// Conjuncts pinned to this endpoint shrink its distinct count;
		// everything else is assumed independent of it.
		first, lastConds, _ := SplitByEndpoint(x.Cond)
		pinned := first
		if last {
			pinned = lastConds
		}
		for _, c := range pinned {
			d *= cm.Selectivity(c)
		}
		// The label-pattern leaf σ[label(edge(1)) = L](Edges) has exact
		// distinct endpoint counts in the symbol table.
		if s, ok := labelScan(x); ok && s.Edge {
			if sym := st.SymbolByLabel(s.Label); sym != nil {
				if last {
					d = float64(sym.DistinctDst)
				} else {
					d = float64(sym.DistinctSrc)
				}
			} else {
				d = 0
			}
		}
	case core.Join:
		if last {
			d = cm.distinctM(x.R, true, m)
		} else {
			d = cm.distinctM(x.L, false, m)
		}
	case core.Union:
		d = cm.distinctM(x.L, last, m) + cm.distinctM(x.R, last, m)
	case core.Recurse:
		// Closure paths start (end) at base path starts (ends).
		d = cm.distinctM(x.In, last, m)
	case core.Restrict:
		d = cm.distinctM(x.In, last, m)
	case core.Project:
		d = nodes
	default:
		d = nodes
	}
	if d > nodes {
		d = nodes
	}
	if c := cm.cardM(e, m); d > c {
		d = c
	}
	return d
}
