package graph_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// BenchmarkApplySteady prices one in-memory Store.Apply in live_ingest's
// stream shape — 32-op batches of persons and knows edges on the
// 7,000-person graph, each batch deleted again 8 batches later — with the
// delta held near 256 and near 1,900 records: once the delta passes the
// target by 128 records the store folds it and refills it to 128 below,
// all outside the timer. An Apply that costs its batch costs the same at
// both sizes; scripts/check_allocs.sh fails when B/op at delta=1900
// exceeds 1.5× B/op at delta=256.
func BenchmarkApplySteady(b *testing.B) {
	const persons, ops, lag, distinct = 7000, 32, 8, 512
	g := ldbc.MustGenerate(ldbc.Config{Persons: persons, Messages: 2 * persons,
		KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
	adds, err := ldbc.UpdateStream(ldbc.UpdateConfig{
		Batches: distinct, OpsPerBatch: ops, ExistingPersons: persons, PersonFraction: 0.4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// cycle is the stream after its first lag inserts: insert i, then the
	// delete of insert i-lag, which repeats every distinct inserts.
	cycle := make([]graph.Batch, 0, 2*distinct)
	for i := range adds {
		ownEndpoints(adds[i], persons)
	}
	for i := lag; i < lag+distinct; i++ {
		cycle = append(cycle, adds[i%distinct], undo(adds[i-lag]))
	}
	for _, target := range []int{256, 1900} {
		b.Run(fmt.Sprintf("delta=%d", target), func(b *testing.B) {
			s := graph.NewStore(g, graph.StoreOptions{CompactThreshold: -1})
			defer s.Close()
			next := 0
			apply := func() {
				if _, err := s.Apply(cycle[next%len(cycle)]); err != nil {
					b.Fatal(err)
				}
				next++
			}
			for _, a := range adds[:lag] {
				if _, err := s.Apply(a); err != nil {
					b.Fatal(err)
				}
			}
			refill := func() {
				for s.DeltaSize() < target-128 {
					apply()
				}
			}
			refill()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.DeltaSize() >= target+128 {
					b.StopTimer()
					if err := s.Compact(); err != nil {
						b.Fatal(err)
					}
					refill()
					b.StartTimer()
				}
				apply()
			}
		})
	}
}

// ownEndpoints rewrites the endpoints of b's edges that name a person
// another batch inserts onto a person of the base graph, so deleting a
// batch never cascades into another batch's edges.
func ownEndpoints(b graph.Batch, persons int) {
	own := map[string]bool{}
	for _, op := range b.Ops {
		if op.Kind == graph.OpAddNode {
			own[op.Key] = true
		}
	}
	onto := func(key string) string {
		if own[key] || !strings.HasPrefix(key, "up") {
			return key
		}
		n, _ := strconv.Atoi(key[2:])
		return "p" + strconv.Itoa(1+n%persons)
	}
	for i := range b.Ops {
		b.Ops[i].Src, b.Ops[i].Dst = onto(b.Ops[i].Src), onto(b.Ops[i].Dst)
	}
}

// undo deletes what b inserted: its edges, then its nodes.
func undo(b graph.Batch) graph.Batch {
	var edges, nodes []graph.Op
	for _, op := range b.Ops {
		if op.Kind == graph.OpAddEdge {
			edges = append(edges, graph.Op{Kind: graph.OpDelEdge, Key: op.Key})
		} else {
			nodes = append(nodes, graph.Op{Kind: graph.OpDelNode, Key: op.Key})
		}
	}
	return graph.Batch{Ops: append(edges, nodes...)}
}
