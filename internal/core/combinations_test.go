package core

import (
	"fmt"
	"testing"

	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// TestAllOperatorCombinations sweeps the §6 combination space the paper
// counts (8 group-by × 7 order-by × projections × 5 recursion semantics,
// "1960 combinations, surpassing the 28 defined by GQL") on the Figure 1
// graph and checks the algebraic invariants every combination must obey:
//
//  1. γ preserves the path set (partitioning loses nothing);
//  2. π output ⊆ ϕ output (projection only selects);
//  3. π(*,*,*) returns the whole set regardless of ordering;
//  4. every pipeline is deterministic (two evaluations agree);
//  5. tighter projection bounds yield subsets of looser ones.
func TestAllOperatorCombinations(t *testing.T) {
	g := ldbc.Figure1()
	base := knowsEdges(g)

	projections := []struct {
		name                 string
		parts, groups, paths Count
	}{
		{"all", AllCount(), AllCount(), AllCount()},
		{"p1", NCount(1), AllCount(), AllCount()},
		{"g1", AllCount(), NCount(1), AllCount()},
		{"a1", AllCount(), AllCount(), NCount(1)},
		{"a1desc", AllCount(), AllCount(), NCount(1).Descending()},
	}

	for _, sem := range AllSemantics() {
		lim := Limits{}
		if sem == Walk {
			lim.MaxLen = 4
		}
		phi, err := EvalRecurse(sem, base, lim)
		if err != nil {
			t.Fatalf("ϕ%s: %v", sem, err)
		}
		for _, gk := range AllGroupKeys() {
			space := EvalGroupBy(gk, phi)
			// Invariant 1: grouping preserves the path set.
			if !allPaths(space).Equal(phi) {
				t.Fatalf("γ%s(ϕ%s) lost or invented paths", gk, sem)
			}
			orderings := append([]OrderKey{0}, AllOrderKeys()...)
			for _, ok := range orderings {
				ordered := space
				if ok != 0 {
					ordered = EvalOrderBy(ok, space)
				}
				for _, proj := range projections {
					name := fmt.Sprintf("%s/γ%s/τ%s/π%s", sem, gk, ok, proj.name)
					t.Run(name, func(t *testing.T) {
						out := EvalProject(proj.parts, proj.groups, proj.paths, ordered)
						// Invariant 2: projection only selects.
						for _, p := range out.Paths() {
							if !phi.Contains(p) {
								t.Fatalf("projected path %s not in ϕ result", p.Format(g))
							}
						}
						// Invariant 3: the * projection is the identity.
						if proj.parts.All && proj.groups.All && proj.paths.All && !proj.paths.Desc {
							if !out.Equal(phi) {
								t.Fatalf("π(*,*,*) != ϕ result (%d vs %d)", out.Len(), phi.Len())
							}
						}
						// Invariant 4: determinism.
						again := EvalProject(proj.parts, proj.groups, proj.paths, ordered)
						if !out.Equal(again) {
							t.Fatal("projection is non-deterministic")
						}
						// Invariant 5: bounded ⊆ unbounded.
						full := EvalProject(AllCount(), AllCount(), AllCount(), ordered)
						for _, p := range out.Paths() {
							if !full.Contains(p) {
								t.Fatalf("bounded projection escaped the full projection")
							}
						}
					})
				}
			}
		}
	}
}

// TestGroupByPartitionKeysConsistent: every path lands in the partition
// its endpoints dictate, for every key and semantics.
func TestGroupByPartitionKeysConsistent(t *testing.T) {
	g := ldbc.Figure1()
	base := knowsEdges(g)
	for _, sem := range []Semantics{Trail, Simple, Shortest} {
		phi, err := EvalRecurse(sem, base, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for _, gk := range AllGroupKeys() {
			space := EvalGroupBy(gk, phi)
			for _, part := range space.Partitions {
				for _, grp := range part.Groups {
					for _, rp := range grp.Paths {
						if part.HasSource && rp.Path.First() != part.Source {
							t.Fatalf("γ%s: path %s in partition with source %v",
								gk, rp.Path.Format(g), part.Source)
						}
						if part.HasTarget && rp.Path.Last() != part.Target {
							t.Fatalf("γ%s: path %s in partition with target %v",
								gk, rp.Path.Format(g), part.Target)
						}
						if gk&GroupLength != 0 && rp.Path.Len() != grp.Length {
							t.Fatalf("γ%s: path of length %d in group %d",
								gk, rp.Path.Len(), grp.Length)
						}
						if gk&GroupLength == 0 && grp.Length != -1 {
							t.Fatalf("γ%s: group carries a length key", gk)
						}
					}
				}
			}
		}
	}
}

// TestProjectionCountsRespectBounds verifies the per-level truncation of
// Algorithm 1 structurally (not just via the flattened output): at most
// #P partitions contribute, each with at most #G groups of at most #A
// paths.
func TestProjectionCountsRespectBounds(t *testing.T) {
	g := ldbc.Figure1()
	trails, err := EvalRecurse(Trail, knowsEdges(g), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, gk := range []GroupKey{GroupST, GroupSTL, GroupSource | GroupLength} {
		space := EvalOrderBy(OrderPartition|OrderGroup|OrderPath, EvalGroupBy(gk, trails))
		for _, bounds := range [][3]int{{1, 1, 1}, {2, 1, 2}, {3, 2, 1}} {
			out := EvalProject(NCount(bounds[0]), NCount(bounds[1]), NCount(bounds[2]), space)
			maxPaths := bounds[0] * bounds[1] * bounds[2]
			if out.Len() > maxPaths {
				t.Errorf("γ%s π%v returned %d paths, bound is %d",
					gk, bounds, out.Len(), maxPaths)
			}
		}
	}
	_ = g
}

// TestSpaceExprStringsCoverCombinations: the renderings of all pipeline
// combinations are unique, so plans are unambiguous.
func TestSpaceExprStringsCoverCombinations(t *testing.T) {
	seen := make(map[string]string)
	in := PathExpr(Edges{})
	for _, sem := range AllSemantics() {
		for _, gk := range AllGroupKeys() {
			for _, ok := range AllOrderKeys() {
				plan := Project{
					Parts: AllCount(), Groups: NCount(1), Paths: AllCount(),
					In: OrderBy{Key: ok, In: GroupBy{Key: gk, In: Recurse{Sem: sem, In: in}}},
				}
				s := plan.String()
				if prev, dup := seen[s]; dup {
					t.Fatalf("ambiguous rendering %q for two combinations (%s)", s, prev)
				}
				seen[s] = fmt.Sprintf("%s/%s/%s", sem, gk, ok)
			}
		}
	}
	if len(seen) != 5*8*7 {
		t.Errorf("expected %d distinct renderings, got %d", 5*8*7, len(seen))
	}
}

// TestGroupByEmptyInput: grouping the empty set yields an empty space and
// projecting it yields the empty set.
func TestGroupByEmptyInput(t *testing.T) {
	empty := pathset.New(0)
	for _, gk := range AllGroupKeys() {
		ss := EvalGroupBy(gk, empty)
		if len(ss.Partitions) != 0 {
			t.Errorf("γ%s(∅) has %d partitions", gk, len(ss.Partitions))
		}
		out := EvalProject(AllCount(), AllCount(), AllCount(), EvalOrderBy(OrderPath, ss))
		if out.Len() != 0 {
			t.Errorf("π over empty space returned %d paths", out.Len())
		}
	}
}

// TestSolutionSpaceSingletons: a single-path input produces exactly one
// partition/group under every key.
func TestSolutionSpaceSingletons(t *testing.T) {
	g := ldbc.Figure1()
	n, _ := g.NodeByKey("n1")
	single := pathset.FromPaths(path.FromNode(n.ID))
	for _, gk := range AllGroupKeys() {
		ss := EvalGroupBy(gk, single)
		if len(ss.Partitions) != 1 || ss.NumGroups() != 1 || ss.NumPaths() != 1 {
			t.Errorf("γ%s(single) shape %d/%d/%d",
				gk, len(ss.Partitions), ss.NumGroups(), ss.NumPaths())
		}
	}
}
