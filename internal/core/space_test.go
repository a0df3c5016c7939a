package core

import (
	"strings"
	"testing"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// trailsKnows evaluates ϕTrail(σ[Knows](Edges(G))) on Figure 1 — the input
// of the paper's §5 worked example (Figure 5, steps 1–3).
func trailsKnows(t *testing.T, g *graph.Graph) *pathset.Set {
	t.Helper()
	s, err := EvalRecurse(Trail, knowsEdges(g), Limits{})
	if err != nil {
		t.Fatalf("ϕTrail: %v", err)
	}
	return s
}

// table3Trails returns, in Table 3 order, the ten trails the paper's §5
// example works with: {p1, p2, p3, p5, p6, p7, p9, p11, p12, p13}.
func table3Trails(t *testing.T, g *graph.Graph) *pathset.Set {
	t.Helper()
	s := pathset.New(10)
	for _, keys := range [][]string{
		{"n1", "e1", "n2"},
		{"n1", "e1", "n2", "e2", "n3", "e3", "n2"},
		{"n1", "e1", "n2", "e2", "n3"},
		{"n1", "e1", "n2", "e4", "n4"},
		{"n1", "e1", "n2", "e2", "n3", "e3", "n2", "e4", "n4"},
		{"n2", "e2", "n3", "e3", "n2"},
		{"n2", "e2", "n3"},
		{"n2", "e4", "n4"},
		{"n2", "e2", "n3", "e3", "n2", "e4", "n4"},
		{"n3", "e3", "n2", "e4", "n4"},
	} {
		s.Add(path.MustFromKeys(g, keys...))
	}
	return s
}

// TestTable4SpaceShapes reproduces the paper's Table 4: the partition and
// group organization induced by each of the 8 group-by keys, evaluated on
// the Table 3 trail set.
func TestTable4SpaceShapes(t *testing.T) {
	g := ldbc.Figure1()
	in := table3Trails(t, g)
	// The trail set has sources {n1,n2,n3}, targets {n2,n3,n4}, lengths
	// {1,2,3,4}, source-target pairs 7, and per-key group counts below.
	tests := []struct {
		key        GroupKey
		partitions int
		groups     int
	}{
		{GroupNone, 1, 1},
		{GroupSource, 3, 3},               // one group per partition
		{GroupTarget, 3, 3},               // one group per partition
		{GroupLength, 1, 4},               // one partition, M groups
		{GroupST, 7, 7},                   // one group per (s,t) partition
		{GroupSource | GroupLength, 3, 8}, // n1:{1,2,3,4} n2:{1,2,3} n3:{2}
		{GroupTarget | GroupLength, 3, 9}, // n2:{1,2,3} n3:{1,2} n4:{1,2,3,4}
		{GroupSTL, 7, 10},                 // every (s,t,l) combination
	}
	for _, tc := range tests {
		ss := EvalGroupBy(tc.key, in)
		if len(ss.Partitions) != tc.partitions {
			t.Errorf("γ%s: %d partitions, want %d", tc.key, len(ss.Partitions), tc.partitions)
		}
		if ss.NumGroups() != tc.groups {
			t.Errorf("γ%s: %d groups, want %d", tc.key, ss.NumGroups(), tc.groups)
		}
		if ss.NumPaths() != in.Len() {
			t.Errorf("γ%s lost paths: %d, want %d", tc.key, ss.NumPaths(), in.Len())
		}
		if !allPaths(ss).Equal(in) {
			t.Errorf("γ%s changed the path set", tc.key)
		}
		// Fresh spaces are unordered: all ranks are 1.
		for _, p := range ss.Partitions {
			if p.Rank != 1 {
				t.Errorf("γ%s: partition rank %d, want 1", tc.key, p.Rank)
			}
			for _, grp := range p.Groups {
				if grp.Rank != 1 {
					t.Errorf("γ%s: group rank %d, want 1", tc.key, grp.Rank)
				}
				for _, rp := range grp.Paths {
					if rp.Rank != 1 {
						t.Errorf("γ%s: path rank %d, want 1", tc.key, rp.Rank)
					}
				}
			}
		}
	}
}

// TestTable5SolutionSpace reproduces the paper's Table 5: γST over the
// Table 3 trails yields 7 partitions with the listed members and MinL
// values.
func TestTable5SolutionSpace(t *testing.T) {
	g := ldbc.Figure1()
	in := table3Trails(t, g)
	ss := EvalGroupBy(GroupST, in)
	if len(ss.Partitions) != 7 {
		t.Fatalf("γST produced %d partitions, want 7", len(ss.Partitions))
	}
	// Expected rows, keyed by (source, target): member paths (by keys)
	// and the partition MinL from Table 5.
	type row struct {
		src, dst string
		members  [][]string
		minл     int
	}
	rows := []row{
		{"n1", "n2", [][]string{{"n1", "e1", "n2"}, {"n1", "e1", "n2", "e2", "n3", "e3", "n2"}}, 1},
		{"n1", "n3", [][]string{{"n1", "e1", "n2", "e2", "n3"}}, 2},
		{"n1", "n4", [][]string{{"n1", "e1", "n2", "e4", "n4"}, {"n1", "e1", "n2", "e2", "n3", "e3", "n2", "e4", "n4"}}, 2},
		{"n2", "n2", [][]string{{"n2", "e2", "n3", "e3", "n2"}}, 2},
		{"n2", "n3", [][]string{{"n2", "e2", "n3"}}, 1},
		{"n2", "n4", [][]string{{"n2", "e4", "n4"}, {"n2", "e2", "n3", "e3", "n2", "e4", "n4"}}, 1},
		{"n3", "n4", [][]string{{"n3", "e3", "n2", "e4", "n4"}}, 2},
	}
	for _, want := range rows {
		src, _ := g.NodeByKey(want.src)
		dst, _ := g.NodeByKey(want.dst)
		var part *Partition
		for _, p := range ss.Partitions {
			if p.Source == src.ID && p.Target == dst.ID {
				part = p
				break
			}
		}
		if part == nil {
			t.Errorf("no partition for (%s, %s)", want.src, want.dst)
			continue
		}
		if !part.HasSource || !part.HasTarget {
			t.Errorf("(%s,%s): partition endpoints not marked", want.src, want.dst)
		}
		if len(part.Groups) != 1 {
			t.Errorf("(%s,%s): %d groups, want 1 (γST has one group per partition)",
				want.src, want.dst, len(part.Groups))
			continue
		}
		grp := part.Groups[0]
		if len(grp.Paths) != len(want.members) {
			t.Errorf("(%s,%s): %d paths, want %d", want.src, want.dst, len(grp.Paths), len(want.members))
			continue
		}
		members := pathset.New(len(grp.Paths))
		for _, rp := range grp.Paths {
			members.Add(rp.Path)
		}
		for _, keys := range want.members {
			if !members.Contains(path.MustFromKeys(g, keys...)) {
				t.Errorf("(%s,%s): missing member %v", want.src, want.dst, keys)
			}
		}
		if got := part.MinLen(); got != want.minл {
			t.Errorf("(%s,%s): MinL(P) = %d, want %d", want.src, want.dst, got, want.minл)
		}
		if got := grp.MinLen(); got != want.minл {
			t.Errorf("(%s,%s): MinL(G) = %d, want %d", want.src, want.dst, got, want.minл)
		}
	}
}

// TestTable6OrderBySemantics reproduces the paper's Table 6: which ranks
// each τθ variant refreshes and which it carries over.
func TestTable6OrderBySemantics(t *testing.T) {
	g := ldbc.Figure1()
	in := table3Trails(t, g)
	base := EvalGroupBy(GroupST, in)

	for _, key := range AllOrderKeys() {
		out := EvalOrderBy(key, base)
		for _, p := range out.Partitions {
			wantP := 1
			if key&OrderPartition != 0 {
				wantP = p.MinLen()
			}
			if p.Rank != wantP {
				t.Errorf("τ%s: partition rank %d, want %d", key, p.Rank, wantP)
			}
			for _, grp := range p.Groups {
				wantG := 1
				if key&OrderGroup != 0 {
					wantG = grp.MinLen()
				}
				if grp.Rank != wantG {
					t.Errorf("τ%s: group rank %d, want %d", key, grp.Rank, wantG)
				}
				for _, rp := range grp.Paths {
					wantA := 1
					if key&OrderPath != 0 {
						wantA = rp.Path.Len()
					}
					if rp.Rank != wantA {
						t.Errorf("τ%s: path rank %d, want %d", key, rp.Rank, wantA)
					}
				}
			}
		}
	}
	// τ must not mutate its input space.
	for _, p := range base.Partitions {
		if p.Rank != 1 {
			t.Fatal("EvalOrderBy mutated its input")
		}
	}
}

// TestFigure5Pipeline reproduces the full §5 worked example:
// π(*,*,1)(τA(γST(ϕTrail(σ[Knows](Edges(G)))))) = {p1,p3,p5,p7,p9,p11,p13}.
func TestFigure5Pipeline(t *testing.T) {
	g := ldbc.Figure1()
	trails := trailsKnows(t, g)
	ss := EvalGroupBy(GroupST, trails)
	ss = EvalOrderBy(OrderPath, ss)
	got := EvalProject(AllCount(), AllCount(), NCount(1), ss)

	// The paper's example works over its 10 listed trails; the full trail
	// set adds the n3→n2 and n3→n3 partitions, whose shortest trails are
	// (n3,e3,n2) and (n3,e3,n2,e2,n3). The projected set is the paper's
	// {p1,p3,p5,p7,p9,p11,p13} plus those two.
	want := pathset.FromPaths(
		path.MustFromKeys(g, "n1", "e1", "n2"),             // p1
		path.MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"), // p3
		path.MustFromKeys(g, "n1", "e1", "n2", "e4", "n4"), // p5
		path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2"), // p7
		path.MustFromKeys(g, "n2", "e2", "n3"),             // p9
		path.MustFromKeys(g, "n2", "e4", "n4"),             // p11
		path.MustFromKeys(g, "n3", "e3", "n2", "e4", "n4"), // p13
		path.MustFromKeys(g, "n3", "e3", "n2"),
		path.MustFromKeys(g, "n3", "e3", "n2", "e2", "n3"),
	)
	if !got.Equal(want) {
		t.Errorf("Figure 5 pipeline =\n%s\nwant\n%s", got.Format(g), want.Format(g))
	}

	// Restricted to the paper's own 10-trail input, the result is exactly
	// the paper's answer set.
	ss10 := EvalGroupBy(GroupST, table3Trails(t, g))
	ss10 = EvalOrderBy(OrderPath, ss10)
	got10 := EvalProject(AllCount(), AllCount(), NCount(1), ss10)
	want10 := pathset.FromPaths(
		path.MustFromKeys(g, "n1", "e1", "n2"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e4", "n4"),
		path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2"),
		path.MustFromKeys(g, "n2", "e2", "n3"),
		path.MustFromKeys(g, "n2", "e4", "n4"),
		path.MustFromKeys(g, "n3", "e3", "n2", "e4", "n4"),
	)
	if !got10.Equal(want10) {
		t.Errorf("paper's 10-trail pipeline =\n%s\nwant {p1,p3,p5,p7,p9,p11,p13}", got10.Format(g))
	}
}

// TestProjectionBounds exercises Algorithm 1's truncation logic.
func TestProjectionBounds(t *testing.T) {
	g := ldbc.Figure1()
	in := table3Trails(t, g)
	ss := EvalOrderBy(OrderPartition|OrderGroup|OrderPath, EvalGroupBy(GroupST, in))

	if got := EvalProject(AllCount(), AllCount(), AllCount(), ss); !got.Equal(in) {
		t.Error("π(*,*,*) must return every path")
	}
	if got := EvalProject(NCount(3), AllCount(), AllCount(), ss); got.Len() >= in.Len() {
		t.Error("π(3,*,*) must drop some partitions")
	}
	// Bounds larger than available keep everything ("if fewer than k,
	// then all are retained").
	if got := EvalProject(NCount(100), NCount(100), NCount(100), ss); !got.Equal(in) {
		t.Error("oversized bounds must retain all paths")
	}
	// One partition, one group, one path: the globally shortest trail.
	got := EvalProject(NCount(1), NCount(1), NCount(1), ss)
	if got.Len() != 1 {
		t.Fatalf("π(1,1,1) returned %d paths", got.Len())
	}
	if got.Paths()[0].Len() != 1 {
		t.Errorf("π(1,1,1) after full ordering must return a length-1 path, got %s",
			got.Paths()[0].Format(g))
	}
}

// TestProjectionStability: with equal ranks, projection respects the
// space's construction order, making ANY-style selectors reproducible.
func TestProjectionStability(t *testing.T) {
	g := ldbc.Figure1()
	in := table3Trails(t, g)
	ss := EvalGroupBy(GroupST, in) // all ranks 1: fully tied
	got := EvalProject(AllCount(), AllCount(), NCount(1), ss)
	// The first path of each partition in insertion order: p1, p3, p5,
	// p7, p9, p11, p13 (insertion follows Table 3 order).
	want := pathset.FromPaths(
		path.MustFromKeys(g, "n1", "e1", "n2"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e2", "n3"),
		path.MustFromKeys(g, "n1", "e1", "n2", "e4", "n4"),
		path.MustFromKeys(g, "n2", "e2", "n3", "e3", "n2"),
		path.MustFromKeys(g, "n2", "e2", "n3"),
		path.MustFromKeys(g, "n2", "e4", "n4"),
		path.MustFromKeys(g, "n3", "e3", "n2", "e4", "n4"),
	)
	if !got.Equal(want) {
		t.Errorf("tied projection =\n%s\nwant first-inserted per partition", got.Format(g))
	}
}

func TestGroupKeyStrings(t *testing.T) {
	tests := map[GroupKey][2]string{
		GroupNone:                 {"∅", "None"},
		GroupSource:               {"S", "Source"},
		GroupTarget:               {"T", "Target"},
		GroupLength:               {"L", "Length"},
		GroupST:                   {"ST", "Source Target"},
		GroupSource | GroupLength: {"SL", "Source Length"},
		GroupTarget | GroupLength: {"TL", "Target Length"},
		GroupSTL:                  {"STL", "Source Target Length"},
	}
	for k, want := range tests {
		if k.String() != want[0] {
			t.Errorf("GroupKey %d String = %q, want %q", k, k.String(), want[0])
		}
		if k.Words() != want[1] {
			t.Errorf("GroupKey %d Words = %q, want %q", k, k.Words(), want[1])
		}
	}
	if len(AllGroupKeys()) != 8 {
		t.Error("AllGroupKeys must list 8 keys (Table 4)")
	}
}

func TestOrderKeyStrings(t *testing.T) {
	tests := map[OrderKey][2]string{
		OrderPartition:                          {"P", "Partition"},
		OrderGroup:                              {"G", "Group"},
		OrderPath:                               {"A", "Path"},
		OrderPartition | OrderGroup:             {"PG", "Partition Group"},
		OrderPartition | OrderPath:              {"PA", "Partition Path"},
		OrderGroup | OrderPath:                  {"GA", "Group Path"},
		OrderPartition | OrderGroup | OrderPath: {"PGA", "Partition Group Path"},
	}
	for k, want := range tests {
		if k.String() != want[0] {
			t.Errorf("OrderKey %d String = %q, want %q", k, k.String(), want[0])
		}
		if k.Words() != want[1] {
			t.Errorf("OrderKey %d Words = %q, want %q", k, k.Words(), want[1])
		}
	}
	if OrderKey(0).String() != "∅" || OrderKey(0).Words() != "None" {
		t.Error("empty OrderKey rendering")
	}
	if len(AllOrderKeys()) != 7 {
		t.Error("AllOrderKeys must list 7 keys (Table 6)")
	}
}

func TestSpaceFormat(t *testing.T) {
	g := ldbc.Figure1()
	ss := EvalGroupBy(GroupST, table3Trails(t, g))
	text := ss.Format(g)
	for _, want := range []string{"Partition", "MinL(P)", "part1", "(n1, e1, n2)"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format output missing %q:\n%s", want, text)
		}
	}
}

// allPaths flattens a space back into a set of paths (losing structure).
func allPaths(ss *SolutionSpace) *pathset.Set {
	out := pathset.New(ss.NumPaths())
	for _, p := range ss.Partitions {
		for _, g := range p.Groups {
			for _, rp := range g.Paths {
				out.Add(rp.Path)
			}
		}
	}
	return out
}
