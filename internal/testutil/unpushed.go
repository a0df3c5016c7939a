package testutil

import (
	"fmt"
	"sort"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/pathset"
)

// Unpushed evaluates the projection pipeline p without letting anything
// travel from π into the path input: the input is evaluated on its own by
// eval (an engine's EvalPaths — with no projection above it the engine
// has no selector quota to push into its product searches) and γ, τ and π
// are then applied by the reference operators. It is the oracle the
// quota-pushdown differentials compare against path by path, in order.
func Unpushed(eval func(core.PathExpr) (*pathset.Set, error), p core.Project) (*pathset.Set, error) {
	ss, err := unpushedSpace(eval, p.In)
	if err != nil {
		return nil, err
	}
	return core.EvalProject(p.Parts, p.Groups, p.Paths, ss), nil
}

func unpushedSpace(eval func(core.PathExpr) (*pathset.Set, error), x core.SpaceExpr) (*core.SolutionSpace, error) {
	switch x := x.(type) {
	case core.GroupBy:
		in, err := eval(x.In)
		if err != nil {
			return nil, err
		}
		return core.EvalGroupBy(x.Key, in), nil
	case core.OrderBy:
		ss, err := unpushedSpace(eval, x.In)
		if err != nil {
			return nil, err
		}
		return core.EvalOrderBy(x.Key, ss), nil
	default:
		return nil, fmt.Errorf("testutil: unsupported space expression %T", x)
	}
}

// SameSequence reports whether a and b hold the same paths in the same
// order.
func SameSequence(a, b *pathset.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, p := range a.Paths() {
		if !p.Equal(b.At(i)) {
			return false
		}
	}
	return true
}

// PairLengths lists, per (first, last) endpoint pair, the ascending
// lengths of the set's paths — what two evaluators must agree on even
// when a selector lets them keep different paths of a pair.
func PairLengths(s *pathset.Set) map[[2]graph.NodeID][]int {
	out := make(map[[2]graph.NodeID][]int)
	for _, p := range s.Paths() {
		k := [2]graph.NodeID{p.First(), p.Last()}
		out[k] = append(out[k], p.Len())
	}
	for _, ls := range out {
		sort.Ints(ls)
	}
	return out
}
