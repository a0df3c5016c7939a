package path

import (
	"testing"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

func fig1(t *testing.T) *graph.Graph {
	t.Helper()
	return ldbc.Figure1()
}

func TestFromNode(t *testing.T) {
	g := fig1(t)
	n, _ := g.NodeByKey("n1")
	p := FromNode(n.ID)
	if p.Len() != 0 {
		t.Errorf("Len = %d, want 0", p.Len())
	}
	if p.First() != n.ID || p.Last() != n.ID {
		t.Error("First/Last of a node path must be the node")
	}
	if p.IsZero() {
		t.Error("constructed path reported zero")
	}
	if !(Path{}).IsZero() {
		t.Error("zero Path should report IsZero")
	}
}

func TestFromEdge(t *testing.T) {
	g := fig1(t)
	e, _ := g.EdgeByKey("e1")
	p := FromEdge(g, e.ID)
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
	if g.Node(p.First()).Key != "n1" || g.Node(p.Last()).Key != "n2" {
		t.Errorf("endpoints %s→%s, want n1→n2", g.Node(p.First()).Key, g.Node(p.Last()).Key)
	}
}

func TestAccessors(t *testing.T) {
	g := fig1(t)
	// p5 from Table 3: (n1, e1, n2, e4, n4).
	p := MustFromKeys(g, "n1", "e1", "n2", "e4", "n4")
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if n, ok := p.Node(2); !ok || g.Node(n).Key != "n2" {
		t.Errorf("Node(2) = %v ok=%v, want n2", n, ok)
	}
	if e, ok := p.Edge(2); !ok || g.Edge(e).Key != "e4" {
		t.Errorf("Edge(2) = %v ok=%v, want e4", e, ok)
	}
	if _, ok := p.Node(0); ok {
		t.Error("Node(0) should be out of range (positions are 1-based)")
	}
	if _, ok := p.Node(4); ok {
		t.Error("Node(4) should be out of range")
	}
	if _, ok := p.Edge(0); ok {
		t.Error("Edge(0) should be out of range")
	}
	if _, ok := p.Edge(3); ok {
		t.Error("Edge(3) should be out of range")
	}
}

func TestConcat(t *testing.T) {
	g := fig1(t)
	p1 := MustFromKeys(g, "n1", "e1", "n2")
	p2 := MustFromKeys(g, "n2", "e4", "n4")
	if !p1.CanConcat(p2) {
		t.Fatal("p1 ◦ p2 should be defined")
	}
	got := p1.Concat(p2)
	want := MustFromKeys(g, "n1", "e1", "n2", "e4", "n4")
	if !got.Equal(want) {
		t.Errorf("Concat = %s, want %s", got.Format(g), want.Format(g))
	}
	if p2.CanConcat(p1) {
		t.Error("p2 ◦ p1 should not be defined")
	}
	defer func() {
		if recover() == nil {
			t.Error("Concat of non-adjacent paths should panic")
		}
	}()
	p2.Concat(p1)
}

func TestConcatWithZeroLength(t *testing.T) {
	g := fig1(t)
	p := MustFromKeys(g, "n1", "e1", "n2")
	n2, _ := g.NodeByKey("n2")
	zero := FromNode(n2.ID)
	if got := p.Concat(zero); !got.Equal(p) {
		t.Errorf("p ◦ (n2) = %s, want p itself", got.Format(g))
	}
	n1, _ := g.NodeByKey("n1")
	zero1 := FromNode(n1.ID)
	if got := zero1.Concat(p); !got.Equal(p) {
		t.Errorf("(n1) ◦ p = %s, want p itself", got.Format(g))
	}
}

func TestExtend(t *testing.T) {
	g := fig1(t)
	p := MustFromKeys(g, "n1", "e1", "n2")
	e4, _ := g.EdgeByKey("e4")
	got := p.Extend(g, e4.ID)
	want := MustFromKeys(g, "n1", "e1", "n2", "e4", "n4")
	if !got.Equal(want) {
		t.Errorf("Extend = %s, want %s", got.Format(g), want.Format(g))
	}
	// Extending must not mutate the original.
	if p.Len() != 1 {
		t.Error("Extend mutated the receiver")
	}
	e1, _ := g.EdgeByKey("e1")
	defer func() {
		if recover() == nil {
			t.Error("Extend with non-adjacent edge should panic")
		}
	}()
	p.Extend(g, e1.ID)
}

func TestClassification(t *testing.T) {
	g := fig1(t)
	tests := []struct {
		keys                   []string
		trail, acyclic, simple bool
	}{
		// Rows of the paper's Table 3.
		{[]string{"n1", "e1", "n2"}, true, true, true},                                        // p1
		{[]string{"n1", "e1", "n2", "e2", "n3", "e3", "n2"}, true, false, false},              // p2
		{[]string{"n1", "e1", "n2", "e2", "n3"}, true, true, true},                            // p3
		{[]string{"n1", "e1", "n2", "e2", "n3", "e3", "n2", "e2", "n3"}, false, false, false}, // p4
		{[]string{"n1", "e1", "n2", "e4", "n4"}, true, true, true},                            // p5
		{[]string{"n1", "e1", "n2", "e2", "n3", "e3", "n2", "e4", "n4"}, true, false, false},  // p6
		{[]string{"n2", "e2", "n3", "e3", "n2"}, true, false, true},                           // p7: cycle, simple
		{[]string{"n2", "e2", "n3", "e3", "n2", "e2", "n3", "e3", "n2"}, false, false, false}, // p8
		{[]string{"n2", "e2", "n3"}, true, true, true},                                        // p9
		{[]string{"n2", "e2", "n3", "e3", "n2", "e2", "n3"}, false, false, false},             // p10
		{[]string{"n2", "e4", "n4"}, true, true, true},                                        // p11
		{[]string{"n2", "e2", "n3", "e3", "n2", "e4", "n4"}, true, false, false},              // p12
		{[]string{"n3", "e3", "n2", "e4", "n4"}, true, true, true},                            // p13
		{[]string{"n3", "e3", "n2", "e2", "n3", "e3", "n2", "e4", "n4"}, false, false, false}, // p14
	}
	for i, tc := range tests {
		p := MustFromKeys(g, tc.keys...)
		if got := p.IsTrail(); got != tc.trail {
			t.Errorf("p%d IsTrail = %v, want %v", i+1, got, tc.trail)
		}
		if got := p.IsAcyclic(); got != tc.acyclic {
			t.Errorf("p%d IsAcyclic = %v, want %v", i+1, got, tc.acyclic)
		}
		if got := p.IsSimple(); got != tc.simple {
			t.Errorf("p%d IsSimple = %v, want %v", i+1, got, tc.simple)
		}
	}
}

func TestZeroLengthClassification(t *testing.T) {
	g := fig1(t)
	n, _ := g.NodeByKey("n1")
	p := FromNode(n.ID)
	if !p.IsTrail() || !p.IsAcyclic() || !p.IsSimple() {
		t.Error("a length-zero path is a trail, acyclic and simple")
	}
}

func TestFormat(t *testing.T) {
	g := fig1(t)
	p := MustFromKeys(g, "n1", "e1", "n2", "e4", "n4")
	if got := p.Format(g); got != "(n1, e1, n2, e4, n4)" {
		t.Errorf("Format = %q", got)
	}
	n, _ := g.NodeByKey("n3")
	if got := FromNode(n.ID).Format(g); got != "(n3)" {
		t.Errorf("Format zero-length = %q", got)
	}
}

func TestKeyUniqueness(t *testing.T) {
	g := fig1(t)
	paths := []Path{
		MustFromKeys(g, "n1"),
		MustFromKeys(g, "n2"),
		MustFromKeys(g, "n1", "e1", "n2"),
		MustFromKeys(g, "n2", "e2", "n3"),
		MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"),
		MustFromKeys(g, "n1", "e1", "n2", "e4", "n4"),
		MustFromKeys(g, "n2", "e2", "n3", "e3", "n2"),
	}
	seen := make(map[string]int)
	for i, p := range paths {
		if j, dup := seen[p.Key()]; dup {
			t.Errorf("paths %d and %d share key %q", i, j, p.Key())
		}
		seen[p.Key()] = i
	}
	// Same path built twice must share a key.
	a := MustFromKeys(g, "n1", "e1", "n2")
	b := MustFromKeys(g, "n1", "e1", "n2")
	if a.Key() != b.Key() {
		t.Error("equal paths have different keys")
	}
}

func TestCompare(t *testing.T) {
	g := fig1(t)
	short := MustFromKeys(g, "n1", "e1", "n2")
	long := MustFromKeys(g, "n1", "e1", "n2", "e2", "n3")
	if Compare(short, long) >= 0 {
		t.Error("shorter path must order first")
	}
	if Compare(long, short) <= 0 {
		t.Error("longer path must order last")
	}
	if Compare(short, short) != 0 {
		t.Error("a path must compare equal to itself")
	}
	a := MustFromKeys(g, "n1", "e1", "n2")
	b := MustFromKeys(g, "n2", "e2", "n3")
	if Compare(a, b) >= 0 || Compare(b, a) <= 0 {
		t.Error("same-length paths must order by node sequence")
	}
}

func TestNewValidation(t *testing.T) {
	g := fig1(t)
	n1, _ := g.NodeByKey("n1")
	n3, _ := g.NodeByKey("n3")
	e1, _ := g.EdgeByKey("e1")
	if _, err := New(g, []graph.NodeID{n1.ID, n3.ID}, []graph.EdgeID{e1.ID}); err == nil {
		t.Error("New should reject an edge that does not connect the nodes")
	}
	if _, err := New(g, nil, nil); err == nil {
		t.Error("New should reject an empty node sequence")
	}
	if _, err := New(g, []graph.NodeID{n1.ID, n3.ID}, nil); err == nil {
		t.Error("New should reject mismatched node/edge counts")
	}
}

func TestFromKeysErrors(t *testing.T) {
	g := fig1(t)
	if _, err := FromKeys(g); err == nil {
		t.Error("FromKeys() should fail")
	}
	if _, err := FromKeys(g, "n1", "e1"); err == nil {
		t.Error("even-length key sequence should fail")
	}
	if _, err := FromKeys(g, "zz"); err == nil {
		t.Error("unknown node key should fail")
	}
	if _, err := FromKeys(g, "n1", "zz", "n2"); err == nil {
		t.Error("unknown edge key should fail")
	}
}
