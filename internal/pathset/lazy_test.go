package pathset

import (
	"slices"
	"testing"

	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
)

// TestDistinctConstructors: sets built without hashing — by Filter,
// Clone, Sorted and FromOrderedDisjoint — are indistinguishable from sets
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
