// Package testutil provides the seeded random generators shared by the
// randomized differential harness: small LDBC-shaped graphs and random
// logical plans spanning the whole algebra — σ, ⋈, ∪, ϕ under all five
// semantics, ρ under all restrictors, and the extended γ/τ/π pipeline
// with and without truncation.
//
// The generators are deliberately oracle-friendly: graphs stay small and
// recursion-bearing plans are built so a MaxLen-bounded evaluation stays
// well inside the default budgets, so the reference evaluator
// (core.EvalExpr) terminates quickly on every generated plan.
package testutil

import (
	"math/rand"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// Labels used by generated conditions and patterns (the SNB schema).
var (
	edgeLabels = []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator}
	nodeLabels = []string{ldbc.LabelPerson, ldbc.LabelMessage}
)

// RandomGraph generates a small seeded SNB-like graph; cycle density,
// size and shape vary with the rng.
func RandomGraph(rng *rand.Rand) *graph.Graph {
	return ldbc.MustGenerate(ldbc.Config{
		Persons:        3 + rng.Intn(10),
		Messages:       rng.Intn(8),
		KnowsPerPerson: 1 + rng.Intn(3),
		LikesPerPerson: rng.Intn(3),
		CycleFraction:  float64(rng.Intn(11)) / 10,
		Seed:           rng.Int63(),
	})
}

// RandomSemantics picks one of the five path semantics.
func RandomSemantics(rng *rand.Rand) core.Semantics {
	all := core.AllSemantics()
	return all[rng.Intn(len(all))]
}

// RandomPlan generates a random path-sorted plan of bounded depth. The
// returned plan may contain truncating projections (π with numeric
// bounds); IsTruncationFree distinguishes plans whose result is a pure
// set-determined function of the graph from those whose result depends on
// rank tie-breaking order.
func RandomPlan(rng *rand.Rand, depth int) core.PathExpr {
	if depth <= 0 {
		return randomLeaf(rng)
	}
	switch rng.Intn(10) {
	case 0, 1:
		return core.Select{Cond: RandomCond(rng, 2), In: RandomPlan(rng, depth-1)}
	case 2, 3:
		return core.Join{L: RandomPlan(rng, depth-1), R: RandomPlan(rng, depth-1)}
	case 4, 5:
		return core.Union{L: RandomPlan(rng, depth-1), R: RandomPlan(rng, depth-1)}
	case 6:
		return core.Restrict{Sem: RandomSemantics(rng), In: RandomPlan(rng, depth-1)}
	case 7:
		return randomRecursion(rng)
	case 8:
		return randomPipeline(rng, depth)
	default:
		return randomLeaf(rng)
	}
}

func randomLeaf(rng *rand.Rand) core.PathExpr {
	switch rng.Intn(4) {
	case 0:
		return core.Nodes{}
	case 1:
		return core.Edges{}
	case 2:
		return labelSelect(edgeLabels[rng.Intn(len(edgeLabels))])
	default:
		return randomRecursion(rng)
	}
}

func labelSelect(label string) core.PathExpr {
	return core.Select{Cond: cond.Label(cond.EdgeAt(1), label), In: core.Edges{}}
}

// randomRecursion builds ϕSem over a base. Most bases are label patterns
// (exercising the expansion fast path and direction choice); some are
// non-pattern shapes that force the generic closure.
func randomRecursion(rng *rand.Rand) core.PathExpr {
	rec := core.Recurse{Sem: RandomSemantics(rng), In: randomPatternBase(rng, 2)}
	if rng.Intn(4) == 0 {
		// Non-pattern base: a property condition the expansion path
		// cannot recognize, so the generic closure evaluates it.
		pc := cond.Prop(cond.Last(), "id", graph.IntValue(int64(1+rng.Intn(5))))
		pc.Op = cond.GE
		rec.In = core.Select{
			Cond: pc,
			In:   labelSelect(edgeLabels[rng.Intn(len(edgeLabels))]),
		}
	}
	return rec
}

// randomPatternBase builds the label-pattern shapes the engine's
// expansion fast path recognizes: label selects over Edges, joins and
// unions of such, and occasionally bare Edges (any label).
func randomPatternBase(rng *rand.Rand, depth int) core.PathExpr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(6) == 0 {
			return core.Edges{}
		}
		return labelSelect(edgeLabels[rng.Intn(len(edgeLabels))])
	}
	l := randomPatternBase(rng, depth-1)
	r := randomPatternBase(rng, depth-1)
	if rng.Intn(2) == 0 {
		return core.Join{L: l, R: r}
	}
	return core.Union{L: l, R: r}
}

// randomPipeline wraps a sub-plan in the extended algebra: γ with a
// random key, optionally τ with a random key, and π with random bounds.
func randomPipeline(rng *rand.Rand, depth int) core.PathExpr {
	keys := core.AllGroupKeys()
	gkey := keys[rng.Intn(len(keys))]
	var space core.SpaceExpr = core.GroupBy{Key: gkey, In: RandomPlan(rng, depth-1)}
	if rng.Intn(2) == 0 {
		okeys := core.AllOrderKeys()
		space = core.OrderBy{Key: okeys[rng.Intn(len(okeys))], In: space}
	}
	return core.Project{
		Parts:  randomCount(rng),
		Groups: randomCount(rng),
		Paths:  randomCount(rng),
		In:     space,
	}
}

func randomCount(rng *rand.Rand) core.Count {
	if rng.Intn(2) == 0 {
		return core.AllCount()
	}
	c := core.NCount(1 + rng.Intn(3))
	if rng.Intn(4) == 0 {
		c = c.Descending()
	}
	return c
}

// RandomCond generates a random selection condition over the SNB schema.
func RandomCond(rng *rand.Rand, depth int) cond.Cond {
	if depth == 0 || rng.Intn(2) == 0 {
		return randomAtomCond(rng)
	}
	switch rng.Intn(4) {
	case 0:
		return cond.And{L: RandomCond(rng, depth-1), R: RandomCond(rng, depth-1)}
	case 1:
		return cond.Or{L: RandomCond(rng, depth-1), R: RandomCond(rng, depth-1)}
	case 2:
		return cond.Not{C: RandomCond(rng, depth-1)}
	default:
		return randomAtomCond(rng)
	}
}

func randomAtomCond(rng *rand.Rand) cond.Cond {
	target := []cond.Target{cond.First(), cond.Last(), cond.NodeAt(1), cond.EdgeAt(1)}[rng.Intn(4)]
	switch rng.Intn(5) {
	case 0:
		return cond.True{}
	case 1:
		c := cond.Len(rng.Intn(3))
		return c
	case 2:
		pc := cond.Prop(target, "id", graph.IntValue(int64(1+rng.Intn(6))))
		pc.Op = cond.GE
		return pc
	default:
		label := nodeLabels[rng.Intn(len(nodeLabels))]
		if target.Kind == cond.TargetEdge {
			label = edgeLabels[rng.Intn(len(edgeLabels))]
		}
		lc := cond.Label(target, label)
		if rng.Intn(4) == 0 {
			lc.Op = cond.NE
		}
		return lc
	}
}

// IsTruncationFree reports whether no projection in the plan truncates:
// every π bound is *, so the plan's result is a set-determined function
// of the graph — independent of the tie-breaking order any evaluator
// constructs its solution spaces in. Only such plans can be compared
// across evaluators with different discovery orders (the engine's
// product search vs. the reference closure); truncating plans are
// compared engine-vs-engine, where the planner guarantees order parity.
func IsTruncationFree(e core.PathExpr) bool {
	switch x := e.(type) {
	case core.Select:
		return IsTruncationFree(x.In)
	case core.Join:
		return IsTruncationFree(x.L) && IsTruncationFree(x.R)
	case core.Union:
		return IsTruncationFree(x.L) && IsTruncationFree(x.R)
	case core.Recurse:
		return IsTruncationFree(x.In)
	case core.Restrict:
		return IsTruncationFree(x.In)
	case core.Project:
		if !x.Parts.All || !x.Groups.All || !x.Paths.All {
			return false
		}
		return spaceTruncationFree(x.In)
	default:
		return true
	}
}

func spaceTruncationFree(e core.SpaceExpr) bool {
	switch x := e.(type) {
	case core.GroupBy:
		return IsTruncationFree(x.In)
	case core.OrderBy:
		return spaceTruncationFree(x.In)
	default:
		return true
	}
}

// RandomSelectorPlan generates a truncating plan whose result the
// reference evaluator can still be compared with: a selector pipeline over
// a truncation-free input, placed under ⋈, ∪ or σ, or under another such
// pipeline. Each pipeline truncates only where no tie can decide what
// survives: γ groups by Length, so the groups of a partition have distinct
// lengths, and τ ranks them by MinL(G), so a group bound keeps the same
// groups whatever order an evaluator discovers paths in. Under γL alone
// there is one partition, which any partition bound keeps. The plans
// cover the shape randomPipeline seldom yields: a
// quota-pushing pipeline inside a larger truncating plan.
func RandomSelectorPlan(rng *rand.Rand) core.PathExpr {
	p := selectorPipeline(rng, truncationFreeInput(rng))
	switch rng.Intn(4) {
	case 0:
		other := truncationFreeInput(rng)
		if rng.Intn(2) == 0 {
			return core.Join{L: p, R: other}
		}
		return core.Join{L: other, R: p}
	case 1:
		other := truncationFreeInput(rng)
		if rng.Intn(2) == 0 {
			return core.Union{L: p, R: other}
		}
		return core.Union{L: other, R: p}
	case 2:
		return core.Select{Cond: RandomCond(rng, 2), In: p}
	default:
		return selectorPipeline(rng, p)
	}
}

// truncationFreeInput is a pattern recursion, which a pipeline above it
// can push a quota into, or half the time any truncation-free plan.
func truncationFreeInput(rng *rand.Rand) core.PathExpr {
	if rng.Intn(2) == 0 {
		return core.Recurse{Sem: RandomSemantics(rng), In: randomPatternBase(rng, 2)}
	}
	for {
		if x := RandomPlan(rng, 2); IsTruncationFree(x) {
			return x
		}
	}
}

// selectorPipeline wraps in in π(*, k, *) over τG over γ with Length in
// its key. Half the time that is SHORTEST k GROUP, π(*,k,*)(τG(γSTL)),
// the shape opt.Derive pushes a quota from; otherwise the γ key varies,
// τ ranks by random other keys too, sometimes as a chain of two τ, the
// group bound may be descending, and under γL alone the partition bound
// is random.
func selectorPipeline(rng *rand.Rand, in core.PathExpr) core.Project {
	if rng.Intn(2) == 0 {
		return core.Project{
			Parts: core.AllCount(), Groups: core.NCount(1 + rng.Intn(3)), Paths: core.AllCount(),
			In: core.OrderBy{Key: core.OrderGroup, In: core.GroupBy{Key: core.GroupSTL, In: in}},
		}
	}
	keys := []core.GroupKey{core.GroupLength, core.GroupSource | core.GroupLength, core.GroupTarget | core.GroupLength, core.GroupSTL}
	key := keys[rng.Intn(len(keys))]
	var space core.SpaceExpr = core.GroupBy{Key: key, In: in}
	order := core.OrderGroup | core.OrderKey(rng.Intn(8))&(core.OrderPartition|core.OrderPath)
	if first := core.OrderKey(rng.Intn(8)) & order; first != 0 && first != order && rng.Intn(2) == 0 {
		space = core.OrderBy{Key: first, In: space}
	}
	space = core.OrderBy{Key: order, In: space}
	groups := core.NCount(1 + rng.Intn(3))
	if rng.Intn(3) == 0 {
		groups = groups.Descending()
	}
	parts := core.AllCount()
	if key == core.GroupLength {
		parts = randomCount(rng)
	}
	return core.Project{Parts: parts, Groups: groups, Paths: core.AllCount(), In: space}
}
