package stats

import "testing"

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, d := range []int{1, 1, 2, 3, 4, 7, 8, 100} {
		h.Observe(d)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	// Buckets: d=1 → 0, d∈{2,3} → 1, d∈{4..7} → 2, d∈{8..15} → 3, 100 → 6.
	want := map[int]int32{0: 2, 1: 2, 2: 2, 3: 1, 6: 1}
	for b, c := range want {
		if h[b] != c {
			t.Errorf("bucket %d = %d, want %d", b, h[b], c)
		}
	}
	h.Observe(0) // degree < 1 is ignored
	if h.Count() != 8 {
		t.Errorf("Observe(0) changed the histogram")
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(2)
	b.SetSymbol(0, "Knows")
	b.SetSymbol(1, "Likes")
	b.NodeLabelCount("Person", 3)
	b.EdgeLabelCount("Knows", 4)
	b.EdgeLabelCount("Likes", 1)
	// Node A: 3 Knows out, 1 Likes out. Node B: 1 Knows out. Node C has
	// all 5 incoming edges.
	b.ObserveOut(0, 3)
	b.ObserveOut(1, 1)
	b.ObserveAnyOut(4)
	b.ObserveOut(0, 1)
	b.ObserveAnyOut(1)
	b.ObserveIn(0, 4)
	b.ObserveIn(1, 1)
	b.ObserveAnyIn(5)
	st := b.Finish(3, 5)

	if st.Nodes != 3 || st.Edges != 5 {
		t.Fatalf("Nodes/Edges = %d/%d, want 3/5", st.Nodes, st.Edges)
	}
	knows := st.SymbolByLabel("Knows")
	if knows == nil {
		t.Fatal("Knows symbol missing")
	}
	if knows.Edges != 4 || knows.DistinctSrc != 2 || knows.DistinctDst != 1 {
		t.Errorf("Knows = %+v, want Edges 4, DistinctSrc 2, DistinctDst 1", knows)
	}
	if got := knows.OutFanout(); got != 2 {
		t.Errorf("Knows OutFanout = %v, want 2", got)
	}
	if got := knows.InFanout(); got != 4 {
		t.Errorf("Knows InFanout = %v, want 4", got)
	}
	if knows.MaxOut != 3 || knows.MaxIn != 4 {
		t.Errorf("Knows MaxOut/MaxIn = %d/%d, want 3/4", knows.MaxOut, knows.MaxIn)
	}
	if st.Any.Edges != 5 || st.Any.DistinctSrc != 2 || st.Any.DistinctDst != 1 {
		t.Errorf("Any = %+v, want Edges 5, DistinctSrc 2, DistinctDst 1", st.Any)
	}
	if st.NodeLabelCount("Person") != 3 || st.NodeLabelCount("") != 3 {
		t.Errorf("NodeLabelCount: Person=%d all=%d, want 3/3",
			st.NodeLabelCount("Person"), st.NodeLabelCount(""))
	}
	if st.EdgeLabelCount("Knows") != 4 || st.EdgeLabelCount("") != 5 {
		t.Errorf("EdgeLabelCount: Knows=%d all=%d, want 4/5",
			st.EdgeLabelCount("Knows"), st.EdgeLabelCount(""))
	}
	if st.SymbolByLabel("Nope") != nil {
		t.Errorf("SymbolByLabel of unknown label should be nil")
	}
	if st.String() == "" {
		t.Errorf("String should render a summary")
	}
}

// TestZeroFanout pins the division-by-zero guards.
func TestZeroFanout(t *testing.T) {
	var s Symbol
	if s.OutFanout() != 0 || s.InFanout() != 0 {
		t.Errorf("fanout of empty symbol should be 0")
	}
}
