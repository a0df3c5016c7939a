package pathset

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
)

func samplePaths(t *testing.T) (ps []path.Path, format func(*Set) string) {
	t.Helper()
	g := ldbc.Figure1()
	ps = []path.Path{
		path.MustFromKeys(g, "n1"),
		path.MustFromKeys(g, "n1", "e1", "n2"),
		path.MustFromKeys(g, "n2", "e2", "n3"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"),
		path.MustFromKeys(g, "n2", "e4", "n4"),
	}
	return ps, func(s *Set) string { return s.Format(g) }
}

func TestAddAndDedup(t *testing.T) {
	ps, _ := samplePaths(t)
	s := New(0)
	for _, p := range ps {
		if !s.Add(p) {
			t.Errorf("first Add of %s returned false", p)
		}
	}
	for _, p := range ps {
		if s.Add(p) {
			t.Errorf("duplicate Add of %s returned true", p)
		}
	}
	if s.Len() != len(ps) {
		t.Errorf("Len = %d, want %d", s.Len(), len(ps))
	}
}

func TestZeroValueReady(t *testing.T) {
	ps, _ := samplePaths(t)
	var s Set
	if !s.Add(ps[0]) {
		t.Error("Add to zero Set failed")
	}
	if !s.Contains(ps[0]) {
		t.Error("Contains after Add on zero Set failed")
	}
}

func TestInsertionOrder(t *testing.T) {
	ps, _ := samplePaths(t)
	s := FromPaths(ps...)
	got := s.Paths()
	for i := range ps {
		if !got[i].Equal(ps[i]) {
			t.Fatalf("iteration order broken at %d", i)
		}
	}
	if !s.At(1).Equal(ps[1]) {
		t.Error("At(1) mismatch")
	}
}

func TestUnionIntersectMinus(t *testing.T) {
	ps, _ := samplePaths(t)
	a := FromPaths(ps[0], ps[1], ps[2])
	b := FromPaths(ps[2], ps[3])
	u := Union(a, b)
	if u.Len() != 4 {
		t.Errorf("Union len = %d, want 4", u.Len())
	}
	// Union must not mutate inputs.
	if a.Len() != 3 || b.Len() != 2 {
		t.Error("Union mutated its inputs")
	}
}

func TestFilterCloneEqual(t *testing.T) {
	ps, _ := samplePaths(t)
	s := FromPaths(ps...)
	onlyLen1 := s.Filter(func(p path.Path) bool { return p.Len() == 1 })
	if onlyLen1.Len() != 3 {
		t.Errorf("Filter len = %d, want 3", onlyLen1.Len())
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Error("Clone not Equal to original")
	}
	c.Add(path.MustFromKeys(ldbc.Figure1(), "n5"))
	if c.Equal(s) {
		t.Error("Clone shares state with original")
	}
	if s.Equal(onlyLen1) {
		t.Error("different sets reported Equal")
	}
	// Equal is order-insensitive.
	rev := New(s.Len())
	paths := s.Paths()
	for i := len(paths) - 1; i >= 0; i-- {
		rev.Add(paths[i])
	}
	if !rev.Equal(s) {
		t.Error("Equal must ignore order")
	}
}

func TestSortAndFormat(t *testing.T) {
	ps, format := samplePaths(t)
	s := FromPaths(ps[3], ps[0], ps[4], ps[1], ps[2])
	sorted := s.Sorted()
	prev := -1
	for _, p := range sorted.Paths() {
		if p.Len() < prev {
			t.Fatal("Sorted not ordered by length")
		}
		prev = p.Len()
	}
	// Sorted must not affect the original insertion order.
	if !s.At(0).Equal(ps[3]) {
		t.Error("Sorted mutated the original")
	}
	text := format(s)
	lines := strings.Split(text, "\n")
	if len(lines) != 5 {
		t.Fatalf("Format produced %d lines, want 5", len(lines))
	}
	if lines[0] != "(n1)" {
		t.Errorf("first formatted line = %q, want (n1)", lines[0])
	}
}

// Property: a set never contains duplicates and Len matches distinct
// insertions, regardless of insertion pattern.
func TestSetInvariant(t *testing.T) {
	g := ldbc.Figure1()
	universe := []path.Path{
		path.MustFromKeys(g, "n1"),
		path.MustFromKeys(g, "n2"),
		path.MustFromKeys(g, "n3"),
		path.MustFromKeys(g, "n1", "e1", "n2"),
		path.MustFromKeys(g, "n2", "e2", "n3"),
		path.MustFromKeys(g, "n3", "e3", "n2"),
		path.MustFromKeys(g, "n2", "e4", "n4"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"),
	}
	f := func(picks []uint8) bool {
		s := New(0)
		distinct := make(map[string]bool)
		for _, pick := range picks {
			p := universe[int(pick)%len(universe)]
			added := s.Add(p)
			if added == distinct[p.Key()] {
				return false // Add result must reflect prior membership
			}
			distinct[p.Key()] = true
		}
		return s.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// Property: Union is commutative and idempotent up to set equality.
func TestUnionProperties(t *testing.T) {
	g := ldbc.Figure1()
	universe := []path.Path{
		path.MustFromKeys(g, "n1"),
		path.MustFromKeys(g, "n2"),
		path.MustFromKeys(g, "n1", "e1", "n2"),
		path.MustFromKeys(g, "n2", "e2", "n3"),
		path.MustFromKeys(g, "n2", "e4", "n4"),
	}
	build := func(picks []uint8) *Set {
		s := New(0)
		for _, pick := range picks {
			s.Add(universe[int(pick)%len(universe)])
		}
		return s
	}
	f := func(xs, ys []uint8) bool {
		a, b := build(xs), build(ys)
		ab, ba := Union(a, b), Union(b, a)
		return ab.Equal(ba) && Union(a, a).Equal(a) && ab.Len() >= a.Len() && ab.Len() >= b.Len()
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// collide returns the sample paths all forced onto one fingerprint, so
// every insert after the first exercises the exact-Equal fallback.
func collide(ps []path.Path) []path.Path {
	out := make([]path.Path, len(ps))
	for i, p := range ps {
		out[i] = path.ForceFingerprint(p, 0xc0111de)
	}
	return out
}

// TestCollisionFallback injects deliberate fingerprint collisions and
// checks that the bucketed index stays an exact set: distinct paths are
// all kept, duplicates are still dropped, and the process-wide collision
// counter records the fallback activations.
func TestCollisionFallback(t *testing.T) {
	ps, _ := samplePaths(t)
	forced := collide(ps)
	before := Collisions()
	s := New(0)
	for _, p := range forced {
		if !s.Add(p) {
			t.Errorf("first Add of colliding %s returned false", p)
		}
	}
	if s.Len() != len(forced) {
		t.Fatalf("Len = %d, want %d distinct colliding paths", s.Len(), len(forced))
	}
	for _, p := range forced {
		if s.Add(p) {
			t.Errorf("duplicate Add of colliding %s returned true", p)
		}
		if !s.Contains(p) {
			t.Errorf("Contains(%s) = false after Add", p)
		}
	}
	// len-1 fallback activations on first insertion; duplicate re-Adds and
	// Contains probes don't count.
	if got := Collisions() - before; got != int64(len(forced)-1) {
		t.Errorf("Collisions delta = %d, want %d", got, len(forced)-1)
	}
}

// TestCollisionSurvivesSortAndClone checks that the positional index is
// rebuilt correctly by Sort and Clone even when buckets overflow.
func TestCollisionSurvivesSortAndClone(t *testing.T) {
	ps, _ := samplePaths(t)
	s := FromPaths(collide(ps)...)
	for _, derived := range []*Set{s.Sorted(), s.Clone()} {
		if derived.Len() != len(ps) {
			t.Fatalf("derived Len = %d, want %d", derived.Len(), len(ps))
		}
		for _, p := range collide(ps) {
			if !derived.Contains(p) {
				t.Errorf("derived set lost %s", p)
			}
			if derived.Add(p) {
				t.Errorf("derived set re-admitted duplicate %s", p)
			}
		}
	}
}
