package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The property-postings contract: NodesWithProp(key, v) returns, in
// ascending order, live nodes only and every node whose value Equals v —
// possibly more, which the caller's exact re-check removes. The oracle is
// a brute-force Value.Equal scan over the live nodes.

const big = 1 << 53 // the first int64 whose successor float64 cannot hold

// propValues are the stored and queried values: int/float equality
// (including -0.0 against 0), ints just past 2^53 whose float64 keys
// collide, strings that spell numbers, and bools.
var propValues = []Value{
	IntValue(0), IntValue(5), IntValue(-3), IntValue(big), IntValue(big + 1), IntValue(big + 2), IntValue(-(big + 1)),
	FloatValue(5), FloatValue(0), FloatValue(math.Copysign(0, -1)), FloatValue(2.5), FloatValue(big), FloatValue(-3),
	StringValue("5"), StringValue("a"), StringValue(""), StringValue("b"),
	BoolValue(true), BoolValue(false),
}

// propQueries adds what no node stores, and the two unindexable constants.
var propQueries = append(append([]Value{}, propValues...),
	IntValue(7), StringValue("zz"), Null(), FloatValue(math.NaN()))

// propKeys: k and j hold the pool values (j more sparsely), nan holds
// numbers and, on a few nodes, NaN; absent is held by no node.
var propKeys = []string{"k", "j", "nan", "absent"}

func randProps(rng *rand.Rand) map[string]Value {
	props := map[string]Value{}
	if rng.Intn(4) > 0 {
		props["k"] = propValues[rng.Intn(len(propValues))]
	}
	if rng.Intn(3) == 0 {
		props["j"] = propValues[rng.Intn(len(propValues))]
	}
	switch rng.Intn(6) {
	case 0:
		props["nan"] = FloatValue(math.NaN())
	case 1, 2:
		props["nan"] = IntValue(int64(rng.Intn(3)))
	}
	return props
}

func bruteProp(g *Graph, key string, v Value) []NodeID {
	var out []NodeID
	for i := 0; i < g.NumNodes(); i++ {
		id := NodeID(i)
		if g.NodeAlive(id) && g.NodeProp(id, key).Equal(v) {
			out = append(out, id)
		}
	}
	return out
}

func isNaN(v Value) bool { return v.Kind == KindFloat && math.IsNaN(v.Float()) }

// storesNaN reports whether any node of the ID space, tombstoned ones
// included, stores NaN under key — the one case in which a numeric lookup
// may be refused.
func storesNaN(g *Graph, key string) bool {
	for i := 0; i < g.NumNodes(); i++ {
		if isNaN(g.NodeProp(NodeID(i), key)) {
			return true
		}
	}
	return false
}

// checkPostings compares every key × query against the oracle and returns
// how many lookups returned a strict superset of the matches.
func checkPostings(t *testing.T, name string, g *Graph) (strict int) {
	t.Helper()
	for _, key := range propKeys {
		for _, v := range propQueries {
			want := bruteProp(g, key, v)
			ids, ok := g.NodesWithProp(key, v)
			if !ok {
				numeric := v.Kind == KindInt || v.Kind == KindFloat
				if !v.IsNull() && !isNaN(v) && !(numeric && storesNaN(g, key)) {
					t.Fatalf("%s: NodesWithProp(%s, %v %s) refused", name, key, v, v.Kind)
				}
				continue
			}
			if v.IsNull() || isNaN(v) {
				t.Fatalf("%s: NodesWithProp(%s, %v) answered an unindexable constant", name, key, v)
			}
			var exact []NodeID
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("%s: NodesWithProp(%s, %v %s) not ascending: %v", name, key, v, v.Kind, ids)
				}
				if !g.NodeAlive(id) {
					t.Fatalf("%s: NodesWithProp(%s, %v %s) returned dead node %d", name, key, v, v.Kind, id)
				}
				if g.NodeProp(id, key).Equal(v) {
					exact = append(exact, id)
				}
			}
			if fmt.Sprint(exact) != fmt.Sprint(want) {
				t.Fatalf("%s: NodesWithProp(%s, %v %s) after the exact check = %v, scan = %v (postings %v)",
					name, key, v, v.Kind, exact, want, ids)
			}
			if len(ids) > len(want) {
				strict++
			}
		}
	}
	return strict
}

func TestNodesWithPropMatchesScan(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		b := NewBuilder()
		n := 10 + rng.Intn(40)
		for i := 0; i < n; i++ {
			b.AddNode(fmt.Sprintf("n%d", i), "L", randProps(rng))
		}
		for i := 0; i < n; i++ {
			b.AddEdge(fmt.Sprintf("e%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", rng.Intn(n)), "E", nil)
		}
		// Store.Apply refuses NaN, so the NaN under k comes with the seed;
		// the deletes below tombstone it, and compaction drops it.
		b.AddNode("nan", "L", Props("k", math.NaN()))
		sealed := b.MustBuild()
		strict := checkPostings(t, fmt.Sprintf("trial %d sealed", trial), sealed)

		s := NewStore(sealed, StoreOptions{CompactThreshold: -1})
		// Appended holders of the queried values, then deletes of indexed
		// base nodes (the NaN holder included) and of an appended one, then
		// a deleted key re-added under a new value.
		var add []Op
		for i := 0; i < 6; i++ {
			props := randProps(rng)
			if isNaN(props["nan"]) {
				delete(props, "nan")
			}
			add = append(add, Op{Kind: OpAddNode, Key: fmt.Sprintf("x%d", i), Label: "L", Props: props})
		}
		mustApply(t, s, add...)
		checkPostings(t, fmt.Sprintf("trial %d overlay+adds", trial), s.Graph())
		del := []Op{{Kind: OpDelNode, Key: "x1"}, {Kind: OpDelNode, Key: "nan"}}
		for _, i := range rng.Perm(n - 1)[:4] {
			del = append(del, Op{Kind: OpDelNode, Key: fmt.Sprintf("n%d", i+1)})
		}
		mustApply(t, s, del...)
		checkPostings(t, fmt.Sprintf("trial %d overlay+deletes", trial), s.Graph())
		mustApply(t, s, Op{Kind: OpDelNode, Key: "n0"})
		mustApply(t, s, Op{Kind: OpAddNode, Key: "n0", Label: "L", Props: Props("k", "reused", "j", 5.0)})
		checkPostings(t, fmt.Sprintf("trial %d overlay+reuse", trial), s.Graph())
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if s.Graph().ov != nil {
			t.Fatal("compaction left a delta view")
		}
		strict += checkPostings(t, fmt.Sprintf("trial %d compacted", trial), s.Graph())
		s.Close()
		if trial == 0 && strict == 0 {
			t.Error("no lookup returned a superset: the 2^53 collision is not exercised")
		}
	}
}

// TestPostingsSkipDeadWords: a delta view reads a label's objects and a
// property value's holders past tombstone words whose 64 IDs are all
// dead, which it skips whole, and past runs of dead IDs that start and
// end inside a word.
func TestPostingsSkipDeadWords(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 7; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "L", Props("k", i%2))
		b.AddEdge(fmt.Sprintf("b%d", i), "n0", fmt.Sprintf("n%d", i), "E", nil)
	}
	s := NewStore(b.MustBuild(), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	var add, del []Op
	for i := 0; i < 300; i++ {
		add = append(add,
			Op{Kind: OpAddNode, Key: fmt.Sprintf("x%d", i), Label: []string{"L", "M"}[i%3/2], Props: Props("k", i%2)},
			Op{Kind: OpAddEdge, Key: fmt.Sprintf("e%d", i), Src: "n1", Dst: fmt.Sprintf("x%d", i), Label: "E"})
		if i >= 20 && i < 185 || i%7 == 0 { // IDs 27-191 cover words 1 and 2 whole
			del = append(del, Op{Kind: OpDelNode, Key: fmt.Sprintf("x%d", i)})
		}
	}
	mustApply(t, s, add...)
	mustApply(t, s, append(del, Op{Kind: OpDelNode, Key: "n3"})...)
	g := s.Graph()
	for _, l := range []string{"L", "M"} {
		var want []NodeID
		for id := NodeID(0); int(id) < g.NumNodes(); id++ {
			if g.NodeAlive(id) && g.NodeLabel(id) == l {
				want = append(want, id)
			}
		}
		if got := g.NodesWithLabel(l); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("NodesWithLabel(%s) = %v, scan = %v", l, got, want)
		}
	}
	var edges []EdgeID
	for id := EdgeID(0); int(id) < g.NumEdges(); id++ {
		if g.EdgeAlive(id) {
			edges = append(edges, id)
		}
	}
	if got := g.EdgesWithLabel("E"); fmt.Sprint(got) != fmt.Sprint(edges) {
		t.Errorf("EdgesWithLabel(E) = %v, scan = %v", got, edges)
	}
	for _, v := range []Value{IntValue(0), IntValue(1)} {
		var want []NodeID
		for id := NodeID(0); int(id) < g.NumNodes(); id++ {
			if g.NodeAlive(id) && g.NodeProp(id, "k").Equal(v) {
				want = append(want, id)
			}
		}
		if got, _ := g.NodesWithProp("k", v); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("NodesWithProp(k, %v) = %v, scan = %v", v, got, want)
		}
	}
}

// TestNodesWithPropUnindexable pins the refusals: Null and NaN constants,
// and numeric lookups on a key some node stores NaN under.
func TestNodesWithPropUnindexable(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a", "L", Props("k", 1, "s", "x"))
	b.AddNode("b", "L", Props("k", math.NaN(), "s", "y"))
	g := b.MustBuild()
	for _, tc := range []struct {
		key  string
		v    Value
		want bool
	}{
		{"s", Null(), false},
		{"s", FloatValue(math.NaN()), false},
		{"k", IntValue(1), false},
		{"k", FloatValue(2), false},
		{"k", StringValue("x"), true},
		{"s", StringValue("x"), true},
		{"s", IntValue(1), true},
	} {
		if _, ok := g.NodesWithProp(tc.key, tc.v); ok != tc.want {
			t.Errorf("NodesWithProp(%s, %v %s) ok = %v, want %v", tc.key, tc.v, tc.v.Kind, ok, tc.want)
		}
	}
}

// TestNodesWithPropConcurrentFirstUse: eight goroutines race to build two
// keys' postings on a fresh graph. Every caller must get the one
// published index per key (the same backing array) and the right answer.
// Run under -race in CI.
func TestNodesWithPropConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder()
	for i := 0; i < 2000; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "L", Props("k", int64(i%50), "j", fmt.Sprintf("v%d", rng.Intn(20))))
	}
	g := b.MustBuild()
	queries := []struct {
		key string
		v   Value
	}{{"k", IntValue(7)}, {"j", StringValue("v3")}, {"k", FloatValue(7)}}
	const workers = 8
	got := make([][][]NodeID, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w] = make([][]NodeID, len(queries))
			for i := range queries {
				q := queries[(i+w)%len(queries)]
				ids, ok := g.NodesWithProp(q.key, q.v)
				if !ok {
					t.Errorf("worker %d: NodesWithProp(%s, %v) refused", w, q.key, q.v)
				}
				got[w][(i+w)%len(queries)] = ids
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for i, q := range queries {
		want := bruteProp(g, q.key, q.v)
		for w := 0; w < workers; w++ {
			if fmt.Sprint(got[w][i]) != fmt.Sprint(want) {
				t.Fatalf("worker %d: NodesWithProp(%s, %v) = %v, want %v", w, q.key, q.v, got[w][i], want)
			}
			if &got[w][i][0] != &got[0][i][0] {
				t.Errorf("worker %d: NodesWithProp(%s, %v) served from a second index", w, q.key, q.v)
			}
		}
	}
	if n := len(*g.props.Load()); n != 2 {
		t.Errorf("%d keys cached, want 2", n)
	}
}

// TestPostingsCarriedAcrossFold: a compaction carries the postings of
// every key its base had built into the folded graph — renumbered, the
// dead holders dropped and the live appended ones merged in — and each
// carried index equals a fresh build on the folded graph. A key never
// built, and one some holder stores NaN under, stay lazy.
func TestPostingsCarriedAcrossFold(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		b := NewBuilder()
		for i := 0; i < 40; i++ {
			b.AddNode(fmt.Sprintf("n%d", i), "L", randProps(rng))
		}
		s := NewStore(b.MustBuild(), StoreOptions{CompactThreshold: -1})
		live := []string{}
		for i := 0; i < 40; i++ {
			live = append(live, fmt.Sprintf("n%d", i))
		}
		next, carried := 0, 0
		for fold := 0; fold < 6; fold++ {
			// Build k and nan on the sealed graph (a delta view builds
			// them on its base), never j.
			for _, key := range []string{"k", "nan"} {
				s.Graph().NodesWithProp(key, IntValue(1))
			}
			for batch := 0; batch < 3; batch++ {
				var ops []Op
				for i := 0; i < 4; i++ {
					props := randProps(rng)
					if isNaN(props["nan"]) {
						delete(props, "nan")
					}
					key := fmt.Sprintf("x%d", next)
					next++
					live = append(live, key)
					ops = append(ops, Op{Kind: OpAddNode, Key: key, Label: "L", Props: props})
				}
				for i := 0; i < 3; i++ {
					j := rng.Intn(len(live))
					ops = append(ops, Op{Kind: OpDelNode, Key: live[j]})
					live = append(live[:j], live[j+1:]...)
				}
				mustApply(t, s, ops...)
			}
			base := s.Graph().ov.base
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			g := s.Graph()
			cache := g.props.Load()
			for _, key := range propKeys {
				built, _ := (*base.props.Load())[key]
				ix, ok := (*cache)[key]
				wantCarried := built != nil && !built.nan && g.nodeProps.cols[key] != nil
				if ok != wantCarried {
					t.Fatalf("trial %d fold %d: key %s carried = %v, want %v", trial, fold, key, ok, wantCarried)
				}
				if !ok {
					continue
				}
				carried++
				if fresh := g.buildPropIndex(key); !reflect.DeepEqual(ix, fresh) {
					t.Fatalf("trial %d fold %d: key %s carried %+v, fresh build %+v", trial, fold, key, ix, fresh)
				}
			}
			checkPostings(t, fmt.Sprintf("trial %d fold %d", trial, fold), g)
		}
		s.Close()
		if carried == 0 {
			t.Fatalf("trial %d: no key was carried", trial)
		}
	}
}
