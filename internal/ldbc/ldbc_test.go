package ldbc

import (
	"strconv"
	"testing"

	"pathalgebra/internal/graph"
)

func TestFigure1Shape(t *testing.T) {
	g := Figure1()
	if g.NumNodes() != 7 {
		t.Errorf("nodes = %d, want 7 (n1..n7)", g.NumNodes())
	}
	if g.NumEdges() != 11 {
		t.Errorf("edges = %d, want 11 (e1..e11)", g.NumEdges())
	}
	if got := len(g.NodesWithLabel(LabelPerson)); got != 4 {
		t.Errorf("persons = %d, want 4", got)
	}
	if got := len(g.NodesWithLabel(LabelMessage)); got != 3 {
		t.Errorf("messages = %d, want 3", got)
	}
	if got := len(g.EdgesWithLabel(LabelKnows)); got != 4 {
		t.Errorf("Knows edges = %d, want 4", got)
	}
	if got := len(g.EdgesWithLabel(LabelLikes)); got != 4 {
		t.Errorf("Likes edges = %d, want 4", got)
	}
	if got := len(g.EdgesWithLabel(LabelHasCreator)); got != 3 {
		t.Errorf("Has_creator edges = %d, want 3", got)
	}
}

func TestFigure1Names(t *testing.T) {
	g := Figure1()
	for key, name := range map[string]string{
		"n1": "Moe", "n2": "Homer", "n3": "Lisa", "n4": "Apu",
	} {
		n, ok := g.NodeByKey(key)
		if !ok {
			t.Fatalf("node %s missing", key)
		}
		if got := g.NodeProp(n.ID, "name"); got.Str() != name {
			t.Errorf("%s name = %v, want %s", key, got, name)
		}
	}
}

// TestFigure1InnerCycle pins the Knows subgraph dictated by Table 3:
// e1: n1→n2, e2: n2→n3, e3: n3→n2, e4: n2→n4.
func TestFigure1InnerCycle(t *testing.T) {
	g := Figure1()
	want := map[string][2]string{
		"e1": {"n1", "n2"},
		"e2": {"n2", "n3"},
		"e3": {"n3", "n2"},
		"e4": {"n2", "n4"},
	}
	for key, ends := range want {
		e, ok := g.EdgeByKey(key)
		if !ok {
			t.Fatalf("edge %s missing", key)
		}
		if e.Label != LabelKnows {
			t.Errorf("%s label = %q, want Knows", key, e.Label)
		}
		src, dst := g.Endpoints(e.ID)
		if g.Node(src).Key != ends[0] || g.Node(dst).Key != ends[1] {
			t.Errorf("%s = %s→%s, want %s→%s",
				key, g.Node(src).Key, g.Node(dst).Key, ends[0], ends[1])
		}
	}
}

// TestFigure1OuterCycle pins the Likes/Has_creator cycle of the intro:
// n1 -e8→ n6 -e11→ n3 -e7→ n7 -e10→ n4 -e9→ n5 -e6→ n1.
func TestFigure1OuterCycle(t *testing.T) {
	g := Figure1()
	hops := []struct{ edge, src, dst, label string }{
		{"e8", "n1", "n6", LabelLikes},
		{"e11", "n6", "n3", LabelHasCreator},
		{"e7", "n3", "n7", LabelLikes},
		{"e10", "n7", "n4", LabelHasCreator},
		{"e9", "n4", "n5", LabelLikes},
		{"e6", "n5", "n1", LabelHasCreator},
	}
	for _, h := range hops {
		e, ok := g.EdgeByKey(h.edge)
		if !ok {
			t.Fatalf("edge %s missing", h.edge)
		}
		src, dst := g.Endpoints(e.ID)
		if g.Node(src).Key != h.src || g.Node(dst).Key != h.dst || e.Label != h.label {
			t.Errorf("%s = %s -%s→ %s, want %s -%s→ %s",
				h.edge, g.Node(src).Key, e.Label, g.Node(dst).Key, h.src, h.label, h.dst)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	g1 := MustGenerate(cfg)
	g2 := MustGenerate(cfg)
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("generation is not deterministic for equal configs")
	}
	for i := 0; i < g1.NumEdges(); i++ {
		e1, e2 := g1.Edge(graph.EdgeID(i)), g2.Edge(graph.EdgeID(i))
		if e1.Src != e2.Src || e1.Dst != e2.Dst || e1.Label != e2.Label {
			t.Fatalf("edge %d differs between runs", i)
		}
	}
	g3 := MustGenerate(Config{Persons: cfg.Persons, Messages: cfg.Messages,
		KnowsPerPerson: cfg.KnowsPerPerson, LikesPerPerson: cfg.LikesPerPerson,
		CycleFraction: cfg.CycleFraction, Seed: cfg.Seed + 1})
	same := g3.NumEdges() == g1.NumEdges()
	if same {
		diff := false
		for i := 0; i < g1.NumEdges(); i++ {
			if g1.Edge(graph.EdgeID(i)).Dst != g3.Edge(graph.EdgeID(i)).Dst {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestGenerateSchema(t *testing.T) {
	g := MustGenerate(Config{
		Persons: 20, Messages: 30, KnowsPerPerson: 3, LikesPerPerson: 2,
		CycleFraction: 0.5, Seed: 13,
	})
	if got := len(g.NodesWithLabel(LabelPerson)); got != 20 {
		t.Errorf("persons = %d, want 20", got)
	}
	if got := len(g.NodesWithLabel(LabelMessage)); got != 30 {
		t.Errorf("messages = %d, want 30", got)
	}
	// Every message has exactly one Has_creator edge (LDBC SNB invariant).
	if got := len(g.EdgesWithLabel(LabelHasCreator)); got != 30 {
		t.Errorf("Has_creator edges = %d, want 30", got)
	}
	for _, id := range g.NodesWithLabel(LabelMessage) {
		creators := 0
		for _, e := range g.Out(id) {
			if g.EdgeLabel(e) == LabelHasCreator {
				creators++
			}
		}
		if creators != 1 {
			t.Errorf("message %s has %d creators, want 1", g.Node(id).Key, creators)
		}
	}
	// Knows edges connect persons only; Likes go person→message.
	for _, e := range g.EdgesWithLabel(LabelKnows) {
		src, dst := g.Endpoints(e)
		if g.NodeLabel(src) != LabelPerson || g.NodeLabel(dst) != LabelPerson {
			t.Errorf("Knows edge %s connects non-persons", g.Edge(e).Key)
		}
	}
	for _, e := range g.EdgesWithLabel(LabelLikes) {
		src, dst := g.Endpoints(e)
		if g.NodeLabel(src) != LabelPerson || g.NodeLabel(dst) != LabelMessage {
			t.Errorf("Likes edge %s has wrong endpoint labels", g.Edge(e).Key)
		}
	}
}

func TestGenerateRing(t *testing.T) {
	// CycleFraction 1 with degree 1 yields a pure person ring.
	g := MustGenerate(Config{Persons: 10, KnowsPerPerson: 1, CycleFraction: 1, Seed: 1})
	if got := len(g.EdgesWithLabel(LabelKnows)); got != 10 {
		t.Fatalf("ring edges = %d, want 10", got)
	}
	for _, id := range g.NodesWithLabel(LabelPerson) {
		if len(g.Out(id)) != 1 || len(g.In(id)) != 1 {
			t.Errorf("ring node %s has degree out=%d in=%d, want 1/1",
				g.Node(id).Key, len(g.Out(id)), len(g.In(id)))
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []Config{
		{Persons: 0},
		{Persons: 5, Messages: -1},
		{Persons: 5, KnowsPerPerson: -2},
		{Persons: 5, LikesPerPerson: -2},
		{Persons: 5, CycleFraction: 1.5},
		{Persons: 5, CycleFraction: -0.1},
	}
	for _, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("Generate(%+v) succeeded, want error", cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGenerate should panic on invalid config")
		}
	}()
	MustGenerate(Config{Persons: -1})
}

var sinkGraph *graph.Graph

// BenchmarkGenerate builds the workloads' graphs: 7,000 persons as the
// interactive and live_ingest workloads do and 150,000 as scale does,
// each with twice as many messages. scripts/check_allocs.sh bounds the
// 7,000-person case's allocs/op.
func BenchmarkGenerate(b *testing.B) {
	for _, persons := range []int{7_000, 150_000} {
		b.Run("persons="+strconv.Itoa(persons), func(b *testing.B) {
			if persons > 10_000 && testing.Short() {
				b.Skip("150,000 persons take seconds per graph")
			}
			cfg := Config{
				Persons: persons, Messages: 2 * persons,
				KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkGraph = MustGenerate(cfg)
			}
		})
	}
}
