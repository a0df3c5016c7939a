package graph

import (
	"fmt"
	"testing"
)

// BenchmarkApplyDurability prices the WAL: one Apply of a two-op batch
// (node + edge) against an in-memory store vs a durable one. The durable
// number is fsync-bound — it is the cost of the "acked means on disk"
// guarantee, and the EXPERIMENTS.md WAL-throughput entry cites this
// pair. Both sides keep auto-compaction off (threshold -1) so the
// comparison is pure append cost. Every edge hangs off node a, whose
// patch an Apply copies, so a fresh store every 256 batches, opened
// outside the timer, keeps the delta from growing with b.N.
func BenchmarkApplyDurability(b *testing.B) {
	run := func(b *testing.B, open func(b *testing.B) *Store) {
		var s *Store
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%256 == 0 {
				b.StopTimer()
				if s != nil {
					s.Close()
				}
				s = open(b)
				b.StartTimer()
			}
			_, err := s.Apply(Batch{Ops: []Op{
				{Kind: OpAddNode, Key: fmt.Sprintf("bn%d", i), Label: "Person"},
				{Kind: OpAddEdge, Key: fmt.Sprintf("be%d", i), Src: "a", Dst: fmt.Sprintf("bn%d", i), Label: "Knows"},
			}})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		s.Close()
	}
	b.Run("memory", func(b *testing.B) {
		run(b, func(b *testing.B) *Store {
			return NewStore(seedGraph(b), durableOpts)
		})
	})
	b.Run("wal", func(b *testing.B) {
		run(b, func(b *testing.B) *Store {
			s, err := OpenDurable(b.TempDir(), seedGraph(b), durableOpts)
			if err != nil {
				b.Fatal(err)
			}
			return s
		})
	})
}
