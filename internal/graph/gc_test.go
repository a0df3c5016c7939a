package graph_test

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// heapNow collects garbage and returns the live heap and the part of it
// the collector must scan.
func heapNow() (live, scan uint64) {
	runtime.GC()
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// TestSealedGraphNotScanned checks that a sealed graph is pointer-free
// where it is large: of the live heap a 20k-person graph adds, at most 5%
// is memory the collector scans, so marking does not grow with the graph.
// It also bounds that heap at 90 bytes per node and edge: each key is
// stored once, and the table that finds it holds 4-byte IDs (a second,
// rendered copy of the keys and a Go map from hashes to IDs took 110).
// Lazily built indexes (postings, bitsets) are not built here.
func TestSealedGraphNotScanned(t *testing.T) {
	cfg := ldbc.DefaultConfig()
	cfg.Persons, cfg.Messages = 20_000, 40_000
	live0, scan0 := heapNow()
	g := ldbc.MustGenerate(cfg)
	live1, scan1 := heapNow()
	runtime.KeepAlive(g)
	if live1 <= live0 {
		t.Fatalf("live heap did not grow with the graph: %d -> %d bytes", live0, live1)
	}
	grew := live1 - live0
	scanned := int64(scan1) - int64(scan0)
	share := float64(scanned) / float64(grew)
	t.Logf("graph: %d live bytes, %d of them scanned (%.1f%%)", grew, scanned, 100*share)
	if share > 0.05 {
		t.Errorf("the collector scans %.1f%% of the sealed graph's %d live bytes, want <= 5%%", 100*share, grew)
	}
	objects := g.NumNodes() + g.NumEdges()
	perObject := float64(grew) / float64(objects)
	t.Logf("graph: %d nodes and edges, %.1f live bytes each", objects, perObject)
	if perObject > 90 {
		t.Errorf("the sealed graph takes %.1f live bytes per node and edge (%d bytes for %d), want <= 90", perObject, grew, objects)
	}
}

var (
	sinkNode  graph.NodeID
	sinkEdge  graph.EdgeID
	sinkOK    bool
	sinkKey   string
	sinkValue graph.Value
	sinkAdj   graph.Adjacency
)

// BenchmarkGraphAccessors prices the sealed graph's hot accessors, each
// over every object of a 2k-person graph in turn; NodeIDByKeyMiss looks up
// keys no node has. Every one reads columns
// only, so scripts/check_allocs.sh holds them all at 0 allocs/op.
func BenchmarkGraphAccessors(b *testing.B) {
	cfg := ldbc.DefaultConfig()
	cfg.Persons, cfg.Messages = 2000, 4000
	g := ldbc.MustGenerate(cfg)
	nodes, edges := g.NumNodes(), g.NumEdges()
	keys := make([]string, nodes)
	misses := make([]string, nodes)
	for i := range keys {
		keys[i] = g.NodeKey(graph.NodeID(i))
		misses[i] = keys[i] + "-absent"
	}
	edgeKeys := make([]string, edges)
	for i := range edgeKeys {
		edgeKeys[i] = g.EdgeKey(graph.EdgeID(i))
	}
	bench := func(name string, f func(i int)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f(i)
			}
		})
	}
	bench("NodeIDByKey", func(i int) { sinkNode, sinkOK = g.NodeIDByKey(keys[i%nodes]) })
	bench("NodeIDByKeyMiss", func(i int) { sinkNode, sinkOK = g.NodeIDByKey(misses[i%nodes]) })
	bench("EdgeIDByKey", func(i int) { sinkEdge, sinkOK = g.EdgeIDByKey(edgeKeys[i%edges]) })
	bench("NodeKey", func(i int) { sinkKey = g.NodeKey(graph.NodeID(i % nodes)) })
	bench("NodeProp/string", func(i int) { sinkValue = g.NodeProp(graph.NodeID(i%nodes), "name") })
	bench("NodeProp/int", func(i int) { sinkValue = g.NodeProp(graph.NodeID(i%nodes), "id") })
	bench("Endpoints", func(i int) { sinkNode, _ = g.Endpoints(graph.EdgeID(i % edges)) })
	bench("OutRuns", func(i int) { sinkAdj = g.OutRuns(graph.NodeID(i % nodes)) })
}
