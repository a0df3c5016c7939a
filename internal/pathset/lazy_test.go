package pathset

import (
	"slices"
	"testing"

	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
)

// TestDistinctConstructors: sets built without hashing — by Filter,
// Clone, Sorted and the shard merge — are indistinguishable from sets
// built by repeated Add of the same paths in the same order: in Contains,
// Equal, order and Collisions. Probing counts no collision, and a later
// colliding Add counts one on either, with or without forced fingerprint
// collisions among the paths.
func TestDistinctConstructors(t *testing.T) {
	g := ldbc.Figure1()
	ps, _ := samplePaths(t)
	absent := path.MustFromKeys(g, "n3", "e3", "n2")
	extra := path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2")
	for _, forced := range []bool{false, true} {
		in, out, add := ps, absent, extra
		if forced {
			in, out, add = collide(ps), collide([]path.Path{absent})[0], collide([]path.Path{extra})[0]
		}
		keepOdd := func(p path.Path) bool { return p.Len()%2 == 1 }
		sorted := slices.Clone(in)
		slices.SortStableFunc(sorted, path.Compare)
		var odd []path.Path
		for _, p := range in {
			if keepOdd(p) {
				odd = append(odd, p)
			}
		}
		for _, c := range []struct {
			name  string
			build func() *Set
			want  []path.Path
		}{
			{"Filter", func() *Set { return FromPaths(in...).Filter(keepOdd) }, odd},
			{"Clone", func() *Set { return FromPaths(in...).Clone() }, in},
			{"Sorted", func() *Set { return FromPaths(in...).Sorted() }, sorted},
			{"merge", func() *Set { return FromOrderedDisjoint([][]path.Path{in[:2], nil, in[2:]}) }, in},
			{"FromDistinct", func() *Set { return FromDistinct(slices.Clone(in)) }, in},
		} {
			name := c.name
			if forced {
				name += "/collisions"
			}
			got, ref := c.build(), FromPaths(c.want...)
			before := Collisions()
			if !slices.EqualFunc(got.Paths(), ref.Paths(), path.Path.Equal) {
				t.Errorf("%s: order %v, Add gives %v", name, got.Paths(), ref.Paths())
			}
			for _, p := range in {
				if got.Contains(p) != ref.Contains(p) {
					t.Errorf("%s: Contains(%s) = %v, Add-built set says %v", name, p, got.Contains(p), ref.Contains(p))
				}
			}
			if got.Contains(out) || !got.Equal(ref) || !ref.Equal(got) {
				t.Errorf("%s: Contains(absent) = %v, Equal = %v/%v", name, got.Contains(out), got.Equal(ref), ref.Equal(got))
			}
			if d := Collisions() - before; d != 0 {
				t.Errorf("%s: probing counted %d collisions", name, d)
			}
			before = Collisions()
			if !got.Add(add) || got.Add(add) {
				t.Errorf("%s: Add of a new path then again did not report true, false", name)
			}
			gotDelta := Collisions() - before
			before = Collisions()
			ref.Add(add)
			if refDelta := Collisions() - before; gotDelta != refDelta {
				t.Errorf("%s: Add counted %d collisions, on the Add-built set %d", name, gotDelta, refDelta)
			}
		}
	}
}

// TestAppendArena: paths appended from an arena without probing — forward
// chains, and backward chains materialized reversed — give the set an
// Add of the same paths in the same order would, and an index built by a
// probe between appends stays current.
func TestAppendArena(t *testing.T) {
	ps, _ := samplePaths(t)
	a := path.NewArena(0)
	chain := func(p path.Path, back bool) path.Ref {
		nodes, edges := p.Nodes(), p.Edges()
		if back {
			r := a.Leaf(nodes[len(nodes)-1])
			for i := len(edges) - 1; i >= 0; i-- {
				r = a.Extend(r, edges[i], nodes[i])
			}
			return r
		}
		r := a.Leaf(nodes[0])
		for i, e := range edges {
			r = a.Extend(r, e, nodes[i+1])
		}
		return r
	}
	for _, back := range []bool{false, true} {
		s := new(Set)
		for i, p := range ps {
			if i == 2 && !s.Contains(ps[0]) {
				t.Fatalf("back=%v: Contains misses an appended path", back)
			}
			if back {
				s.AppendArenaReversed(a, chain(p, true))
			} else {
				s.AppendArena(a, chain(p, false))
			}
		}
		ref := FromPaths(ps...)
		if !slices.EqualFunc(s.Paths(), ref.Paths(), path.Path.Equal) || !s.Equal(ref) {
			t.Errorf("back=%v: appended %v, Add gives %v", back, s.Paths(), ref.Paths())
		}
		for _, p := range ps {
			if !s.Contains(p) || s.Add(p) {
				t.Errorf("back=%v: %s not found by Contains, or added again", back, p)
			}
		}
	}
}
