package graph_test

import (
	"fmt"
	"runtime"
	"testing"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// BenchmarkCompact prices Store.Compact — Graph.Rebuild's column fold
// and the swap — after a batch of ten new persons, applied outside the
// timer, on the 7,000-person graph of live_ingest and, outside -short, on
// 150,000 persons. graph-B is the live heap the folded graph takes, so
// B/op over graph-B is what a fold allocates per byte it keeps.
func BenchmarkCompact(b *testing.B) {
	sizes := []int{7000}
	if !testing.Short() {
		sizes = append(sizes, 150_000)
	}
	for _, persons := range sizes {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			g := ldbc.MustGenerate(ldbc.Config{Persons: persons, Messages: 2 * persons,
				KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
			s := graph.NewStore(g, graph.StoreOptions{CompactThreshold: -1})
			defer s.Close()
			batch := func(i int) graph.Batch {
				ops := make([]graph.Op, 10)
				for j := range ops {
					key := fmt.Sprintf("compact%d_%d", i, j)
					ops[j] = graph.Op{Kind: graph.OpAddNode, Key: key, Label: "Person",
						Props: graph.Props("id", persons+10*i+j, "name", key)}
				}
				return graph.Batch{Ops: ops}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := s.Apply(batch(i)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.Compact(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if _, err := s.Apply(batch(b.N)); err != nil {
				b.Fatal(err)
			}
			live0, _ := heapNow()
			folded, err := s.Graph().Rebuild()
			if err != nil {
				b.Fatal(err)
			}
			live1, _ := heapNow()
			runtime.KeepAlive(folded)
			b.ReportMetric(float64(live1-live0), "graph-B")
		})
	}
}
