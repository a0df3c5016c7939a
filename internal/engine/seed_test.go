package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/path"
)

// The seed-index differential: a seed set answered from the label and
// property postings must equal the one a scan of every node finds, in the
// same ascending order, so a seeded search or reach-kernel evaluation
// returns the same bytes either way. Wrapping every conjunct in ¬¬ keeps
// its meaning but hides it from the postings, which forces the scan.

// seedValues mixes ints, floats equal to them (-0.0 against 0 included),
// ints past 2^53 that share a float64, strings that spell numbers, and
// bools.
var seedValues = []graph.Value{
	graph.IntValue(0), graph.IntValue(1), graph.IntValue(2), graph.IntValue(3),
	graph.IntValue(1 << 53), graph.IntValue(1<<53 + 1),
	graph.FloatValue(2), graph.FloatValue(math.Copysign(0, -1)), graph.FloatValue(2.5),
	graph.StringValue("a"), graph.StringValue("2"), graph.BoolValue(true), graph.BoolValue(false),
}

var seedKeys = []string{"id", "v", "w", "absent"}

func seedProps(rng *rand.Rand) map[string]graph.Value {
	props := map[string]graph.Value{}
	for _, k := range seedKeys[:3] {
		if rng.Intn(3) > 0 {
			props[k] = seedValues[rng.Intn(len(seedValues))]
		}
	}
	if rng.Intn(8) == 0 {
		props["w"] = graph.FloatValue(math.NaN()) // w's numeric postings refuse
	}
	return props
}

// ingestProps is seedProps for an op applied through Store.Apply, which
// refuses NaN: the holder drops a NaN drawn for w, so NaN holders come
// from the sealed graph only.
func ingestProps(rng *rand.Rand) map[string]graph.Value {
	props := seedProps(rng)
	if v := props["w"]; v.Kind == graph.KindFloat && math.IsNaN(v.Float()) {
		delete(props, "w")
	}
	return props
}

type seedView struct {
	name string
	g    *graph.Graph
}

// seedViews returns a random graph sealed, under an overlay (appended
// holders, deleted indexed nodes, a deleted key re-added with new values,
// and two labels whose live lists the base's statistics misjudge) and
// compacted.
func seedViews(t *testing.T, rng *rand.Rand) []seedView {
	labels := []string{ldbc.LabelPerson, ldbc.LabelPerson, ldbc.LabelMessage, ""}
	edgeLabels := []string{ldbc.LabelKnows, ldbc.LabelLikes, ldbc.LabelHasCreator}
	b := graph.NewBuilder()
	n := 10 + rng.Intn(8)
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), labels[rng.Intn(len(labels))], seedProps(rng))
	}
	b.AddNode("m0", ldbc.LabelMessage, map[string]graph.Value{"id": graph.IntValue(1)})
	for i := 0; i < 3*n; i++ {
		b.AddEdge(fmt.Sprintf("e%d", i), fmt.Sprintf("n%d", rng.Intn(n)), fmt.Sprintf("n%d", rng.Intn(n)),
			edgeLabels[rng.Intn(len(edgeLabels))], nil)
	}
	sealed := b.MustBuild()
	s := graph.NewStore(sealed, graph.StoreOptions{CompactThreshold: -1})
	t.Cleanup(s.Close)
	var ops []graph.Op
	for i := 0; i < 5; i++ {
		ops = append(ops, graph.Op{Kind: graph.OpAddNode, Key: fmt.Sprintf("x%d", i),
			Label: labels[rng.Intn(len(labels))], Props: ingestProps(rng)})
		ops = append(ops,
			graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprintf("xo%d", i), Src: fmt.Sprintf("x%d", i),
				Dst: fmt.Sprintf("n%d", rng.Intn(n)), Label: edgeLabels[rng.Intn(len(edgeLabels))]},
			graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprintf("xi%d", i), Src: fmt.Sprintf("n%d", rng.Intn(n)),
				Dst: fmt.Sprintf("x%d", i), Label: edgeLabels[rng.Intn(len(edgeLabels))]})
	}
	apply := func(ops ...graph.Op) {
		if _, err := s.Apply(graph.Batch{Ops: ops}); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	apply(ops...)
	apply(graph.Op{Kind: graph.OpDelNode, Key: "n1"}, graph.Op{Kind: graph.OpDelNode, Key: "n2"},
		graph.Op{Kind: graph.OpDelNode, Key: "x0"})
	apply(graph.Op{Kind: graph.OpAddNode, Key: "n1", Label: ldbc.LabelPerson, Props: ingestProps(rng)},
		graph.Op{Kind: graph.OpAddEdge, Key: "xr", Src: "n1", Dst: "n3", Label: ldbc.LabelKnows})
	// Nope, a label the base lacks, gains holders, so the statistics count
	// none; Message loses every base holder, so they count the dead.
	ops = []graph.Op{
		{Kind: graph.OpAddNode, Key: "y0", Label: "Nope", Props: ingestProps(rng)},
		{Kind: graph.OpAddNode, Key: "y1", Label: "Nope", Props: ingestProps(rng)},
		{Kind: graph.OpAddEdge, Key: "yo", Src: "y0", Dst: "n1", Label: ldbc.LabelKnows},
	}
	live := s.Graph()
	for _, id := range sealed.NodesWithLabel(ldbc.LabelMessage) {
		if live.NodeAlive(id) {
			ops = append(ops, graph.Op{Kind: graph.OpDelNode, Key: sealed.NodeKey(id)})
		}
	}
	apply(ops...)
	ov := s.Graph()
	st := ov.Stats()
	if st.NodeLabelCount("Nope") != 0 || len(ov.NodesWithLabel("Nope")) != 2 || st.NodeLabelCount(ldbc.LabelMessage) == 0 {
		t.Fatalf("overlay: Nope counted %d, %d live; Message counted %d",
			st.NodeLabelCount("Nope"), len(ov.NodesWithLabel("Nope")), st.NodeLabelCount(ldbc.LabelMessage))
	}
	for _, id := range ov.NodesWithLabel(ldbc.LabelMessage) {
		if int(id) < sealed.NumNodes() {
			t.Fatalf("overlay: base Message %d survived", id)
		}
	}
	views := []seedView{{"sealed", sealed}, {"overlay", ov}}
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return append(views, seedView{"compacted", s.Graph()})
}

// randConjunct draws a conjunct on target t: label and property
// equalities of every kind (Null and NaN constants included), NE/LT/GE
// residue, and Or/Not, which the postings must not answer.
func randConjunct(rng *rand.Rand, t cond.Target, depth int) cond.Cond {
	key := seedKeys[rng.Intn(len(seedKeys))]
	v := seedValues[rng.Intn(len(seedValues))]
	switch rng.Intn(12) {
	case 0:
		v = graph.Null()
	case 1:
		v = graph.FloatValue(math.NaN())
	}
	switch k := rng.Intn(10); {
	case k < 2:
		return cond.Label(t, []string{ldbc.LabelPerson, ldbc.LabelMessage, "Nope", ""}[rng.Intn(4)])
	case k < 6:
		return cond.Prop(t, key, v)
	case k == 6:
		return cond.PropCmp{Target: t, Prop: key, Op: []cond.Op{cond.NE, cond.LT, cond.GE}[rng.Intn(3)], Value: v}
	case k == 7 && depth > 0:
		return cond.Or{L: randConjunct(rng, t, depth-1), R: randConjunct(rng, t, depth-1)}
	case k == 8 && depth > 0:
		return cond.Not{C: randConjunct(rng, t, depth-1)}
	default:
		return cond.LabelCmp{Target: t, Op: cond.NE, Value: ldbc.LabelPerson}
	}
}

func notNot(conds []cond.Cond) []cond.Cond {
	out := make([]cond.Cond, len(conds))
	for i, c := range conds {
		out[i] = cond.Not{C: cond.Not{C: c}}
	}
	return out
}

// scanSeeds is the oracle: the conjunction evaluated on every live node.
func scanSeeds(g *graph.Graph, conds []cond.Cond) []graph.NodeID {
	c := cond.Conj(conds...)
	var out []graph.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		if g.NodeAlive(id) && c.Eval(g, path.FromNode(id)) {
			out = append(out, id)
		}
	}
	return out
}

func TestSeedIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2310))
	lim := core.Limits{MaxLen: 3}
	patterns := []core.PathExpr{
		knowsSel(),
		core.Join{L: core.Select{Cond: cond.Label(cond.EdgeAt(1), ldbc.LabelLikes), In: core.Edges{}},
			R: core.Select{Cond: cond.Label(cond.EdgeAt(1), ldbc.LabelHasCreator), In: core.Edges{}}},
		core.Union{L: knowsSel(), R: core.Select{Cond: cond.Label(cond.EdgeAt(1), ldbc.LabelLikes), In: core.Edges{}}},
	}
	seedTargets := []cond.Target{cond.First(), cond.Last(), cond.NodeAt(1), cond.NodeAt(1), cond.NodeAt(2)}
	direct, directIndexed, plans, plansIndexed, kernel := 0, 0, 0, 0, 0
	for trial := 0; trial < 4; trial++ {
		for _, view := range seedViews(t, rng) {
			g := view.g
			name := fmt.Sprintf("trial %d %s", trial, view.name)

			// seedNodes itself, on every target a length-zero path has
			// (node(2) has none: false).
			e := New(g, Options{})
			for i := 0; i < 150; i++ {
				conds := make([]cond.Cond, 1+rng.Intn(3))
				for j := range conds {
					conds[j] = randConjunct(rng, seedTargets[rng.Intn(len(seedTargets))], 1)
				}
				before := e.Stats().SeedScans
				got := e.seedNodes(context.Background(), conds)
				if e.Stats().SeedScans == before {
					directIndexed++
				}
				want := scanSeeds(g, conds)
				if got == nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: seeds of %v = %v, scan = %v", name, conds, got, want)
				}
				if forced := e.seedNodes(context.Background(), notNot(conds)); fmt.Sprint(forced) != fmt.Sprint(want) {
					t.Fatalf("%s: scanned seeds of %v = %v, oracle = %v", name, conds, forced, want)
				}
				direct++
			}

			// Through search and reachKernel: σ over a pattern recursion,
			// seeded forward from first-node conjuncts or backward from
			// last-node ones, the other endpoint filtering.
			for i := 0; i < 25; i++ {
				dir, seedT, otherT := core.Forward, cond.First(), cond.Last()
				if rng.Intn(2) == 0 {
					dir, seedT, otherT = core.Backward, cond.Last(), cond.First()
				}
				conds := make([]cond.Cond, 1+rng.Intn(3))
				for j := range conds {
					conds[j] = randConjunct(rng, seedT, 1)
				}
				if rng.Intn(3) == 0 {
					conds = append(conds, randConjunct(rng, otherT, 0))
				}
				sem := []core.Semantics{core.Walk, core.Trail}[rng.Intn(2)]
				rec := core.Recurse{Sem: sem, Dir: dir, In: patterns[rng.Intn(len(patterns))]}
				plan := core.Select{Cond: cond.Conj(conds...), In: rec}
				forced := core.Select{Cond: cond.Conj(notNot(conds)...), In: rec}
				e := New(g, Options{Limits: lim})
				got, err := e.EvalPaths(plan)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, plan, err)
				}
				if e.Stats().SeedScans == 0 && e.Stats().SeededRecursions > 0 {
					plansIndexed++
				}
				want, err := e.EvalPaths(forced)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, forced, err)
				}
				if renderSet(g, got) != renderSet(g, want) {
					t.Fatalf("%s: %s seeded from the postings:\n%s scanned:\n%s",
						name, plan, renderSet(g, got), renderSet(g, want))
				}
				plans++
				if sem != core.Walk {
					continue
				}
				gotR, err := e.Reach(plan, opt.ReachPairs)
				if err != nil {
					t.Fatalf("%s: reach %s: %v", name, plan, err)
				}
				wantR, err := e.Reach(forced, opt.ReachPairs)
				if err != nil {
					t.Fatalf("%s: reach %s: %v", name, forced, err)
				}
				if !gotR.Kernel || !wantR.Kernel {
					t.Fatalf("%s: %s did not run on the reach kernel", name, plan)
				}
				if fmt.Sprint(gotR.Pairs) != fmt.Sprint(wantR.Pairs) {
					t.Fatalf("%s: reach %s seeded from the postings %v, scanned %v",
						name, plan, gotR.Pairs, wantR.Pairs)
				}
				kernel++
			}
		}
	}
	if directIndexed == 0 || directIndexed == direct || plansIndexed == 0 || kernel == 0 {
		t.Errorf("coverage: %d/%d direct seed sets indexed, %d/%d plan evaluations, %d kernel runs",
			directIndexed, direct, plansIndexed, plans, kernel)
	}
	t.Logf("%d seed sets (%d from postings), %d plan evaluations (%d from postings), %d reach-kernel comparisons",
		direct, directIndexed, plans, plansIndexed, kernel)
}

// benchSeeded are seeded templates of the benchmark's shape: every
// selector and restrictor over the two patterns, from (?x:Person {id:N}).
func benchSeeded() []string {
	var out []string
	for _, p := range []string{":Knows+", "(:Knows+)|(:Likes/:Has_creator)+"} {
		for _, r := range []string{"WALK", "TRAIL", "ACYCLIC", "SIMPLE"} {
			for _, s := range []string{"ALL", "ANY SHORTEST", "ALL SHORTEST", "ANY", "ANY 2", "SHORTEST 2", "SHORTEST 2 GROUP"} {
				out = append(out, "MATCH "+s+" "+r+" p = (?x:Person {id:%d})-["+p+"]->(?y)")
			}
		}
	}
	return out
}

// TestSeedObservability: the benchmark's seeded templates, run and
// reached, seed from the postings — zero scans — and their seed span
// reports the one candidate pair (person and message N share the id) and
// the one seed; a condition no posting answers is scanned and counted.
func TestSeedObservability(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 60, Messages: 120, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
	e := New(g, Options{Limits: core.Limits{MaxLen: 4}})
	for i, tmpl := range benchSeeded() {
		plan, err := compileQuery(fmt.Sprintf(tmpl, 1+i%60))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(plan); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Reach(plan, opt.ReachPairs); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.SeedScans != 0 || st.SeededRecursions == 0 || st.ReachKernelRuns == 0 {
		t.Errorf("seeded templates: %d seed scans, %d seeded recursions, %d kernel runs; want 0 scans",
			st.SeedScans, st.SeededRecursions, st.ReachKernelRuns)
	}

	seedSpan := func(plan core.PathExpr) map[string]int64 {
		t.Helper()
		tr := obs.NewTrace()
		root := tr.Start("query")
		if _, err := e.RunCtx(obs.WithSpan(context.Background(), root), plan); err != nil {
			t.Fatal(err)
		}
		root.End()
		sp := findSpan(tr.Tree(), "seed")
		if sp == nil {
			t.Fatalf("no seed span in\n%s", tr.Format())
		}
		return sp.Attrs
	}
	plan, _ := compileQuery("MATCH ANY SHORTEST WALK p = (?x:Person {id:7})-[:Knows+]->(?y)")
	want := map[string]int64{"conjuncts": 2, "candidates": 2, "seeds": 1, "scanned": 0}
	if got := seedSpan(plan); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("indexed seed span = %v, want %v", got, want)
	}

	scans := e.Stats().SeedScans
	rec := core.Recurse{Sem: core.Walk, In: knowsSel()}
	plan = core.Select{Cond: cond.PropCmp{Target: cond.First(), Prop: "id", Op: cond.LT, Value: graph.IntValue(3)}, In: rec}
	want = map[string]int64{"conjuncts": 1, "candidates": int64(g.LiveNodes()), "seeds": 4, "scanned": int64(g.LiveNodes())}
	if got := seedSpan(plan); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scanned seed span = %v, want %v", got, want)
	}
	if got := e.Stats().SeedScans - scans; got != 1 {
		t.Errorf("SeedScans grew by %d, want 1", got)
	}
}

var seedSink []graph.NodeID

// BenchmarkSeedNodes: the seed set of (?x:Person {id:N}) with the
// postings warm, on sealed graphs of 10k and 100k persons and on a delta
// view (liveDelta) of 7,000 persons, whose Person list is not the base's.
// Its cost follows the candidates, not |V|, so scripts/check_allocs.sh
// requires equal allocs/op at both sealed sizes.
func BenchmarkSeedNodes(b *testing.B) {
	cases := []struct {
		name  string
		graph func(testing.TB) *graph.Graph
	}{
		{"persons=10000", func(testing.TB) *graph.Graph { return seedBenchGraph(10000) }},
		{"persons=100000", func(testing.TB) *graph.Graph { return seedBenchGraph(100000) }},
		{"delta=3000", func(tb testing.TB) *graph.Graph { return liveDelta(tb, 7000, 3000) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.graph(b)
			plan, err := compileQuery("MATCH ANY SHORTEST WALK p = (?x:Person {id:4242})-[:Knows+]->(?y)")
			if err != nil {
				b.Fatal(err)
			}
			var conds []cond.Cond
			for n := opt.Derive(plan).Root; n != nil && conds == nil; n = n.In[0] {
				if n.Search != nil {
					conds = n.Search.Seed
				}
				if len(n.In) == 0 {
					break
				}
			}
			if len(conds) == 0 {
				b.Fatal("template is not seeded")
			}
			e := New(g, Options{})
			ctx := context.Background()
			if seeds := e.seedNodes(ctx, conds); len(seeds) != 1 {
				b.Fatalf("%d seeds, want 1", len(seeds))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seedSink = e.seedNodes(ctx, conds)
			}
			b.StopTimer()
			b.ReportMetric(float64(e.Stats().SeedScans)/float64(b.N), "scans/op")
		})
	}
}

func seedBenchGraph(persons int) *graph.Graph {
	return ldbc.MustGenerate(ldbc.Config{Persons: persons, Messages: 2 * persons, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
}

// liveDelta returns the delta view that live_ingest's stream shape grows
// on a graph of the given persons until it holds target delta records:
// 32-op batches from ldbc.UpdateStream, each deleted again 8 batches
// later, with edges onto persons another batch inserts moved onto base
// persons, so that no delete cascades into another batch.
func liveDelta(tb testing.TB, persons, target int) *graph.Graph {
	const lag = 8
	adds, err := ldbc.UpdateStream(ldbc.UpdateConfig{Batches: 512, OpsPerBatch: 32, ExistingPersons: persons, PersonFraction: 0.4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	s := graph.NewStore(seedBenchGraph(persons), graph.StoreOptions{CompactThreshold: -1})
	tb.Cleanup(s.Close)
	apply := func(b graph.Batch) {
		if _, err := s.Apply(b); err != nil {
			tb.Fatal(err)
		}
	}
	var undos []graph.Batch
	for i := 0; s.DeltaSize() < target; i++ {
		own := map[string]bool{}
		var edges, nodes []graph.Op
		for j := range adds[i].Ops {
			op := &adds[i].Ops[j]
			if op.Kind == graph.OpAddNode {
				own[op.Key] = true
				nodes = append(nodes, graph.Op{Kind: graph.OpDelNode, Key: op.Key})
				continue
			}
			for _, k := range []*string{&op.Src, &op.Dst} {
				if n, err := strconv.Atoi(strings.TrimPrefix(*k, "up")); err == nil && !own[*k] {
					*k = fmt.Sprintf("p%d", 1+n%persons)
				}
			}
			edges = append(edges, graph.Op{Kind: graph.OpDelEdge, Key: op.Key})
		}
		apply(adds[i])
		undos = append(undos, graph.Batch{Ops: append(edges, nodes...)})
		if i >= lag {
			apply(undos[i-lag])
		}
	}
	return s.Graph()
}
