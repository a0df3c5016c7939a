package ldbc

import (
	"reflect"
	"testing"

	"pathalgebra/internal/graph"
)

// testUpdateConfig is a small interleaved insert stream matching
// DefaultConfig's base graph.
func testUpdateConfig() UpdateConfig {
	return UpdateConfig{
		Batches:         8,
		OpsPerBatch:     16,
		ExistingPersons: DefaultConfig().Persons,
		PersonFraction:  0.4,
		Seed:            1,
	}
}

// updateStream is UpdateStream failing the test on error.
func updateStream(t *testing.T, cfg UpdateConfig) []graph.Batch {
	t.Helper()
	bs, err := UpdateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestUpdateStreamDeterministic: equal configs generate identical
// streams; different seeds diverge.
func TestUpdateStreamDeterministic(t *testing.T) {
	cfg := testUpdateConfig()
	a := updateStream(t, cfg)
	b := updateStream(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different streams")
	}
	cfg.Seed = 99
	c := updateStream(t, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical streams")
	}
}

// TestUpdateStreamApplies: every batch applies cleanly in order against
// the matching base graph, and the interleave actually contains both op
// kinds with cross-referencing endpoints.
func TestUpdateStreamApplies(t *testing.T) {
	base := MustGenerate(DefaultConfig())
	cfg := testUpdateConfig()
	stream := updateStream(t, cfg)
	if len(stream) != cfg.Batches {
		t.Fatalf("len(stream) = %d, want %d", len(stream), cfg.Batches)
	}

	s := graph.NewStore(base, graph.StoreOptions{CompactThreshold: -1})
	defer s.Close()
	persons, knows := 0, 0
	usesStreamPerson := false
	for bi, b := range stream {
		if len(b.Ops) != cfg.OpsPerBatch {
			t.Fatalf("batch %d has %d ops, want %d", bi, len(b.Ops), cfg.OpsPerBatch)
		}
		for _, op := range b.Ops {
			switch op.Kind {
			case graph.OpAddNode:
				persons++
			case graph.OpAddEdge:
				knows++
				if op.Label != LabelKnows {
					t.Fatalf("edge op label = %q", op.Label)
				}
				if op.Src[0] == 'u' || op.Dst[0] == 'u' {
					usesStreamPerson = true
				}
			default:
				t.Fatalf("unexpected op kind %v in insert stream", op.Kind)
			}
		}
		if _, err := s.Apply(b); err != nil {
			t.Fatalf("batch %d failed to apply: %v", bi, err)
		}
	}
	if persons == 0 || knows == 0 {
		t.Fatalf("stream not interleaved: %d persons, %d knows", persons, knows)
	}
	if !usesStreamPerson {
		t.Fatal("no knows edge references a stream-inserted person")
	}
	g := s.Graph()
	if g.LiveNodes() != base.LiveNodes()+persons || g.LiveEdges() != base.LiveEdges()+knows {
		t.Fatalf("live counts %d/%d after stream, want %d/%d",
			g.LiveNodes(), g.LiveEdges(), base.LiveNodes()+persons, base.LiveEdges()+knows)
	}

	// PersonFraction 0 must still terminate (forced person inserts when
	// the pair space saturates).
	tiny := UpdateConfig{Batches: 2, OpsPerBatch: 8, ExistingPersons: 2, PersonFraction: 0, Seed: 3}
	if got := updateStream(t, tiny); len(got) != 2 {
		t.Fatalf("tiny stream len = %d", len(got))
	}
}
