package opt_test

import (
	"reflect"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/opt"
)

// TestDerive is the derivation's table: for the quota shapes the engine
// must not push (and their positive controls), the reach routing shapes
// and the two label-index σ forms, it pins what Derive computes — the
// recursion base's label pattern, the selector quota its search runs
// under, the seeded search of σ over it in both directions, the plan's
// label footprint and kernel eligibility.
func TestDerive(t *testing.T) {
	knows := func() core.PathExpr {
		return core.Select{Cond: cond.Label(cond.EdgeAt(1), "Knows"), In: core.Edges{}}
	}
	all, one, two := core.AllCount(), core.NCount(1), core.NCount(2)
	person := func(tg cond.Target) cond.Cond { return cond.Label(tg, "Person") }
	knowsOnly := graph.Footprint{EdgeLabels: []string{"Knows"}}

	// Every plan is built around recursions running in direction dir.
	type shape func(dir core.Direction) core.PathExpr
	rec := func(sem core.Semantics, dir core.Direction) core.PathExpr {
		return core.Recurse{Sem: sem, In: knows(), Dir: dir}
	}
	trail := func(dir core.Direction) core.PathExpr { return rec(core.Trail, dir) }
	pipeline := func(parts, groups, paths core.Count, space func(core.PathExpr) core.SpaceExpr, in shape) shape {
		return func(dir core.Direction) core.PathExpr {
			return core.Project{Parts: parts, Groups: groups, Paths: paths, In: space(in(dir))}
		}
	}
	group := func(key core.GroupKey) func(core.PathExpr) core.SpaceExpr {
		return func(in core.PathExpr) core.SpaceExpr { return core.GroupBy{Key: key, In: in} }
	}
	ordered := func(ord core.OrderKey, key core.GroupKey) func(core.PathExpr) core.SpaceExpr {
		return func(in core.PathExpr) core.SpaceExpr {
			return core.OrderBy{Key: ord, In: core.GroupBy{Key: key, In: in}}
		}
	}
	gST, gSTL := group(core.GroupST), ordered(core.OrderGroup, core.GroupSTL)
	selected := func(c cond.Cond, sem core.Semantics) shape {
		return func(dir core.Direction) core.PathExpr { return core.Select{Cond: c, In: rec(sem, dir)} }
	}
	lenGE2 := cond.LenCmp{Op: cond.GE, K: 2}
	interior := person(cond.NodeAt(2))

	cases := []struct {
		name string
		plan shape
		// pattern is the first recursion base's label pattern, or the
		// root's when the plan has no recursion; "" for none.
		pattern string
		// quota is what the first recursion's search runs under.
		quota core.Quota
		// fwd and bwd render the seeded search of σ over the recursion
		// ("seed | filter"); "" when there is none.
		fwd, bwd  string
		footprint graph.Footprint
		reach     bool
	}{
		// Quota shapes whose discarded paths decide what survives.
		{name: "descending paths", plan: pipeline(all, all, two.Descending(), gST, trail), pattern: ":Knows", footprint: knowsOnly},
		{name: "descending groups", plan: pipeline(all, two.Descending(), all, gSTL, trail), pattern: ":Knows", footprint: knowsOnly},
		{name: "bounded parts", plan: pipeline(two, all, two, gST, trail), pattern: ":Knows", footprint: knowsOnly},
		{name: "both bounded", plan: pipeline(all, two, two, gSTL, trail), pattern: ":Knows", footprint: knowsOnly},
		{name: "group by source", plan: pipeline(all, all, two, group(core.GroupSource), trail), pattern: ":Knows", footprint: knowsOnly},
		{name: "partition order", plan: pipeline(all, all, two, ordered(core.OrderPartition|core.OrderPath, core.GroupST), trail), pattern: ":Knows", footprint: knowsOnly},
		{name: "length σ", plan: pipeline(all, all, two, gST, selected(lenGE2, core.Trail)), pattern: ":Knows",
			bwd: "- | len() >= 2", footprint: knowsOnly},
		{name: "interior σ", plan: pipeline(all, all, two, gST, selected(interior, core.Trail)), pattern: ":Knows",
			bwd: `- | label(node(2)) = "Person"`, footprint: knowsOnly},
		{name: "join under γ", plan: pipeline(all, all, two, gST, func(dir core.Direction) core.PathExpr {
			return core.Join{L: trail(dir), R: knows()}
		}), pattern: ":Knows", footprint: knowsOnly},
		{name: "restrict under γ", plan: pipeline(all, all, two, gST, func(dir core.Direction) core.PathExpr {
			return core.Restrict{Sem: core.Acyclic, In: trail(dir)}
		}), pattern: ":Knows", footprint: knowsOnly},
		{name: "shortest", plan: pipeline(all, all, two, gST, func(dir core.Direction) core.PathExpr {
			return rec(core.Shortest, dir)
		}), pattern: ":Knows", footprint: knowsOnly},
		{name: "non-pattern base", plan: pipeline(all, all, two, gST, func(dir core.Direction) core.PathExpr {
			return core.Recurse{Sem: core.Trail, In: core.Union{L: knows(), R: core.Nodes{}}, Dir: dir}
		}), footprint: graph.Footprint{AllNodes: true, EdgeLabels: []string{"Knows"}}},

		// Their positive controls.
		{name: "ANY 2", plan: pipeline(all, all, two, gST, trail), pattern: ":Knows",
			quota: core.Quota{K: 2}, footprint: knowsOnly},
		{name: "SHORTEST 2", plan: pipeline(all, all, two, ordered(core.OrderPath, core.GroupST), trail), pattern: ":Knows",
			quota: core.Quota{K: 2}, footprint: knowsOnly},
		{name: "SHORTEST 2 GROUP", plan: pipeline(all, two, all, gSTL, trail), pattern: ":Knows",
			quota: core.Quota{K: 2, ByLength: true}, footprint: knowsOnly},

		// Reach routing.
		{name: "walk recursion", plan: func(dir core.Direction) core.PathExpr { return rec(core.Walk, dir) },
			pattern: ":Knows", footprint: knowsOnly, reach: true},
		{name: "shortest recursion", plan: func(dir core.Direction) core.PathExpr { return rec(core.Shortest, dir) },
			pattern: ":Knows", footprint: knowsOnly, reach: true},
		{name: "first-endpoint σ", plan: selected(person(cond.First()), core.Walk), pattern: ":Knows",
			fwd: `label(first) = "Person" | -`, bwd: `- | label(first) = "Person"`, footprint: knowsOnly, reach: true},
		{name: "identity pipeline", plan: pipeline(all, all, all, gST, func(dir core.Direction) core.PathExpr {
			return rec(core.Walk, dir)
		}), pattern: ":Knows", footprint: knowsOnly, reach: true},
		{name: "any-shortest pipeline", plan: pipeline(all, all, one, ordered(core.OrderPath, core.GroupST), func(dir core.Direction) core.PathExpr {
			return rec(core.Shortest, dir)
		}), pattern: ":Knows", footprint: knowsOnly, reach: true},
		{name: "trail recursion", plan: trail, pattern: ":Knows", footprint: knowsOnly},
		{name: "interior-node σ", plan: selected(interior, core.Walk), pattern: ":Knows",
			bwd: `- | label(node(2)) = "Person"`, footprint: knowsOnly},
		{name: "both endpoints and a body conjunct", plan: selected(cond.Conj(person(cond.First()), person(cond.Last()), lenGE2), core.Walk),
			pattern: ":Knows", fwd: `label(first) = "Person" | (label(last) = "Person" AND len() >= 2)`,
			bwd: `label(last) = "Person" | (label(first) = "Person" AND len() >= 2)`, footprint: knowsOnly},

		// The label-index σ forms.
		{name: "edge-label index", plan: func(core.Direction) core.PathExpr { return knows() },
			pattern: ":Knows", footprint: knowsOnly},
		{name: "node-label index", plan: func(core.Direction) core.PathExpr {
			return core.Select{Cond: person(cond.First()), In: core.Nodes{}}
		}, footprint: graph.Footprint{NodeLabels: []string{"Person"}}},
	}
	for _, tc := range cases {
		for _, dir := range []core.Direction{core.Forward, core.Backward} {
			plan := tc.plan(dir)
			d := opt.Derive(plan)
			name := tc.name + "/" + dir.String()

			var pattern *opt.Pattern
			var quota core.Quota
			if r := find(d.Root, isRecursion); r != nil {
				pattern, quota = r.In[0].Pattern, r.Quota
				if (pattern != nil) != (r.Search != nil) {
					t.Errorf("%s: pattern %v but search %v", name, pattern, r.Search)
				}
				if r.Search != nil && (r.Search.NFA == nil || r.Search.Rec.Dir != dir) {
					t.Errorf("%s: search %+v, want an automaton for direction %s", name, r.Search, dir)
				}
			} else {
				pattern = d.Root.Pattern
			}
			if got := patternString(pattern); got != tc.pattern {
				t.Errorf("%s: pattern %q, want %q", name, got, tc.pattern)
			}
			if quota != tc.quota {
				t.Errorf("%s: quota %v, want %v", name, quota, tc.quota)
			}
			want := tc.fwd
			if dir == core.Backward {
				want = tc.bwd
			}
			if got := seededString(find(d.Root, func(n *opt.Node) bool { return n.Ends != nil })); got != want {
				t.Errorf("%s: seeded search %q, want %q", name, got, want)
			}
			if !reflect.DeepEqual(d.Footprint, tc.footprint) {
				t.Errorf("%s: footprint %+v, want %+v", name, d.Footprint, tc.footprint)
			}
			rp, ok := d.Reach(opt.ReachPairs)
			if ok != tc.reach {
				t.Errorf("%s: reach eligible %v, want %v", name, ok, tc.reach)
			}
			if ok && (rp.NFA == nil || rp.Pattern.String() != tc.pattern) {
				t.Errorf("%s: reach plan %+v lacks the forward automaton of %s", name, rp, tc.pattern)
			}
			if _, ok := d.Reach(opt.ReachCountPaths); ok {
				t.Errorf("%s: count-paths admitted to the kernel", name)
			}
		}
	}
}

func isRecursion(n *opt.Node) bool {
	_, ok := n.Path.(core.Recurse)
	return ok
}

// find returns the first node, in evaluation order, satisfying pred.
func find(n *opt.Node, pred func(*opt.Node) bool) *opt.Node {
	if pred(n) {
		return n
	}
	for _, in := range n.In {
		if f := find(in, pred); f != nil {
			return f
		}
	}
	return nil
}

func patternString(p *opt.Pattern) string {
	if p == nil {
		return ""
	}
	return p.Expr.String()
}

// seededString renders σ's seeded search as "seed | filter", "-" for an
// empty side; "" when n is nil or has none.
func seededString(n *opt.Node) string {
	if n == nil || n.Search == nil {
		return ""
	}
	seed, filter := "-", "-"
	if len(n.Search.Seed) > 0 {
		seed = cond.Conj(n.Search.Seed...).String()
	}
	if n.Search.Filter != nil {
		filter = n.Search.Filter.String()
	}
	return seed + " | " + filter
}
