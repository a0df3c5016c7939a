package path

import (
	"math/rand"
	"testing"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// TestArenaMatchesPathDifferential is the differential property test of
// the arena-backed representation against the naive slice-based Path:
// random walks are built step by step in both representations, and at
// every step Extend/Equal/Fingerprint and the restrictor predicates must
// agree. The slice-based Path is the reference — its predicates rebuild
// repetition maps from scratch, while the arena answers incrementally
// from the parent chain.
func TestArenaMatchesPathDifferential(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{
		Persons: 14, Messages: 10, KnowsPerPerson: 3, LikesPerPerson: 2,
		CycleFraction: 0.6, Seed: 11,
	})
	rng := rand.New(rand.NewSource(7))
	a := NewArena(0)
	for walk := 0; walk < 200; walk++ {
		if walk%20 == 0 {
			a.Reset() // exercise reuse across resets
		}
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		ref := a.Leaf(src)
		want := FromNode(src)
		for step := 0; step < 12; step++ {
			checkAgainstReference(t, g, a, ref, want)

			out := g.Out(want.Last())
			if len(out) == 0 {
				break
			}
			e := out[rng.Intn(len(out))]
			_, dst := g.Endpoints(e)

			// The incremental extension predicates must agree with the
			// reference predicates evaluated on the extended path,
			// whenever the current path satisfies the search invariant
			// (the frontier only holds admissible-for-extension paths).
			wantNext := want.Extend(g, e)
			if want.IsTrail() {
				if got, wantV := !a.ContainsEdge(ref, e), wantNext.IsTrail(); got != wantV {
					t.Fatalf("walk %d step %d: incremental trail check = %v, reference = %v (path %s)",
						walk, step, got, wantV, wantNext.String())
				}
			}
			if want.IsAcyclic() {
				if got, wantV := !a.ContainsNode(ref, dst), wantNext.IsAcyclic(); got != wantV {
					t.Fatalf("walk %d step %d: incremental acyclic check = %v, reference = %v (path %s)",
						walk, step, got, wantV, wantNext.String())
				}
				// Simple admissibility when the new node repeats: exactly
				// the cycle-closing case.
				if a.ContainsNode(ref, dst) {
					if got, wantV := dst == a.First(ref), wantNext.IsSimple(); got != wantV {
						t.Fatalf("walk %d step %d: incremental simple check = %v, reference = %v (path %s)",
							walk, step, got, wantV, wantNext.String())
					}
				}
			}

			ref = a.Extend(ref, e, dst)
			want = wantNext
		}
	}
}

// checkAgainstReference asserts every arena accessor agrees with the
// slice-based path want at ref.
func checkAgainstReference(t *testing.T, g *graph.Graph, a *Arena, ref Ref, want Path) {
	t.Helper()
	if got := a.PathLen(ref); got != want.Len() {
		t.Fatalf("PathLen = %d, want %d", got, want.Len())
	}
	if got := a.First(ref); got != want.First() {
		t.Fatalf("First = %d, want %d", got, want.First())
	}
	if got := a.Last(ref); got != want.Last() {
		t.Fatalf("Last = %d, want %d", got, want.Last())
	}
	if got := a.Fingerprint(ref); got != want.Fingerprint() {
		t.Fatalf("Fingerprint = %#x, want %#x", got, want.Fingerprint())
	}
	if !a.EqualPath(ref, want) {
		t.Fatalf("EqualPath(%s) = false", want.String())
	}
	got := a.Path(ref)
	if !got.Equal(want) {
		t.Fatalf("materialized %s, want %s", got.String(), want.String())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("materialized fingerprint %#x, want %#x", got.Fingerprint(), want.Fingerprint())
	}
	// Containment agrees with naive scans over the reference sequences.
	for _, n := range []graph.NodeID{want.First(), want.Last(), graph.NodeID(uint32(want.Fingerprint()) % uint32(g.NumNodes()))} {
		naive := false
		for _, m := range want.Nodes() {
			if m == n {
				naive = true
				break
			}
		}
		if gotC := a.ContainsNode(ref, n); gotC != naive {
			t.Fatalf("ContainsNode(%d) = %v, want %v on %s", n, gotC, naive, want.String())
		}
	}
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e += 7 {
		naive := false
		for _, f := range want.Edges() {
			if f == e {
				naive = true
				break
			}
		}
		if gotC := a.ContainsEdge(ref, e); gotC != naive {
			t.Fatalf("ContainsEdge(%d) = %v, want %v on %s", e, gotC, naive, want.String())
		}
	}
}

// TestArenaEqualRefs checks ref-to-ref equality across shared and
// unshared prefixes, including equal paths interned twice.
func TestArenaEqualRefs(t *testing.T) {
	g := ldbc.Figure1()
	a := NewArena(0)
	p := MustFromKeys(g, "n1", "e1", "n2", "e2", "n3")
	q := MustFromKeys(g, "n1", "e1", "n2", "e4", "n4")
	rp, rq := a.FromPath(p), a.FromPath(q)
	rp2 := a.FromPath(p)
	if !a.Equal(rp, rp) {
		t.Error("Equal(r, r) = false")
	}
	if !a.Equal(rp, rp2) {
		t.Error("equal paths interned separately compare unequal")
	}
	if a.Equal(rp, rq) {
		t.Errorf("distinct paths %s and %s compare equal", p.String(), q.String())
	}
	// Shared-prefix divergence: extend one ref two different ways.
	e2, _ := g.EdgeByKey("e2")
	e4, _ := g.EdgeByKey("e4")
	base := a.FromPath(MustFromKeys(g, "n1", "e1", "n2"))
	_, d2 := g.Endpoints(e2.ID)
	_, d4 := g.Endpoints(e4.ID)
	x, y := a.Extend(base, e2.ID, d2), a.Extend(base, e4.ID, d4)
	if a.Equal(x, y) {
		t.Error("siblings sharing a prefix compare equal")
	}
	if !a.Equal(x, a.FromPath(p)) {
		t.Error("extension does not equal its interned twin")
	}
}

// TestRefSetDedup checks that the visited RefSet detects duplicates across
// distinct refs and counts fingerprint fallbacks only on true collisions.
func TestRefSetDedup(t *testing.T) {
	g := ldbc.Figure1()
	a := NewArena(0)
	s := NewRefSet(a)
	p := MustFromKeys(g, "n1", "e1", "n2", "e2", "n3")
	r1, r2 := a.FromPath(p), a.FromPath(p)
	if !s.Add(r1) {
		t.Error("first Add = false")
	}
	if s.Add(r2) {
		t.Error("duplicate path under a distinct ref was added")
	}
	if s.Add(r1) {
		t.Error("re-adding the same ref succeeded")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	q := MustFromKeys(g, "n1", "e1", "n2", "e4", "n4")
	if !s.Add(a.FromPath(q)) {
		t.Error("distinct path rejected")
	}
	s.Reset()
	a.Reset()
	if s.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", s.Len())
	}
	if !s.Add(a.FromPath(p)) {
		t.Error("Add after Reset = false")
	}
}

// TestArenaTruncate checks the speculative-extension rollback protocol.
func TestArenaTruncate(t *testing.T) {
	g := ldbc.Figure1()
	a := NewArena(0)
	base := a.FromPath(MustFromKeys(g, "n1", "e1", "n2"))
	mark := a.Len()
	e2, _ := g.EdgeByKey("e2")
	_, d2 := g.Endpoints(e2.ID)
	a.Extend(base, e2.ID, d2)
	a.TruncateTo(mark)
	if a.Len() != mark {
		t.Fatalf("Len after truncate = %d, want %d", a.Len(), mark)
	}
	// base survives and extends again to the same path.
	r := a.Extend(base, e2.ID, d2)
	if !a.EqualPath(r, MustFromKeys(g, "n1", "e1", "n2", "e2", "n3")) {
		t.Error("re-extension after truncate produced a different path")
	}
}

// TestSlabMaterialization checks that slab-backed paths are immutable,
// correct, and fenced from one another.
func TestSlabMaterialization(t *testing.T) {
	g := ldbc.Figure1()
	a := NewArena(0)
	var slab Slab
	var paths []Path
	var refs []Ref
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		ref := a.Leaf(src)
		for s := 0; s < rng.Intn(6); s++ {
			out := g.Out(a.Last(ref))
			if len(out) == 0 {
				break
			}
			e := out[rng.Intn(len(out))]
			_, dst := g.Endpoints(e)
			ref = a.Extend(ref, e, dst)
		}
		refs = append(refs, ref)
		paths = append(paths, a.PathSlab(ref, &slab))
	}
	for i, p := range paths {
		if !a.EqualPath(refs[i], p) {
			t.Fatalf("slab path %d diverged from its arena source: %s", i, p.String())
		}
		if p.Fingerprint() != a.Fingerprint(refs[i]) {
			t.Fatalf("slab path %d fingerprint mismatch", i)
		}
	}
}

// TestReversedPathSlab: a chain built last-node-first, as the backward
// product search builds it, materializes reversed to the forward path,
// with the forward path's fingerprint, and ReversedFingerprint predicts
// it without materializing.
func TestReversedPathSlab(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 10, Messages: 6, KnowsPerPerson: 3, LikesPerPerson: 1,
		CycleFraction: 0.6, Seed: 5})
	rng := rand.New(rand.NewSource(9))
	a := NewArena(0)
	var slab Slab
	for walk := 0; walk < 200; walk++ {
		r := a.Leaf(graph.NodeID(rng.Intn(g.NumNodes())))
		for step := 0; step < rng.Intn(7); step++ {
			in := g.In(a.Last(r))
			if len(in) == 0 {
				break
			}
			e := in[rng.Intn(len(in))]
			src, _ := g.Endpoints(e)
			r = a.Extend(r, e, src)
		}
		// The forward path reads the chain from its head: each entry's
		// edge leads on to its parent's node, and the leaf is the end.
		nodes, edges := []graph.NodeID{a.Last(r)}, []graph.EdgeID(nil)
		for x := r; a.PathLen(x) > 0; x = a.entries[x].parent {
			edges = append(edges, a.entries[x].edge)
			nodes = append(nodes, a.Last(a.entries[x].parent))
		}
		want, err := New(g, nodes, edges)
		if err != nil {
			t.Fatalf("walk %d: %v", walk, err)
		}
		got := a.ReversedPathSlab(r, &slab, a.ReversedFingerprint(r))
		if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() || a.ReversedFingerprint(r) != want.Fingerprint() {
			t.Fatalf("walk %d: reversed %s (fp %x), want %s (fp %x)", walk, got, got.Fingerprint(), want, want.Fingerprint())
		}
	}
}
