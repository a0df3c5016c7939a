package ldbc

import (
	"fmt"
	"math/rand"

	"pathalgebra/internal/graph"
)

// UpdateConfig parameterizes the deterministic update-stream generator:
// an LDBC-SNB-style insert stream of new persons and knows edges,
// interleaved into batches for driving a live graph.Store.
type UpdateConfig struct {
	// Batches is the number of batches to generate (≥ 1).
	Batches int
	// OpsPerBatch is the number of operations per batch (≥ 1).
	OpsPerBatch int
	// ExistingPersons is how many p%d person keys the base graph already
	// holds (Config.Persons of the graph the stream will be applied to);
	// knows inserts may attach to them as well as to stream-inserted
	// persons.
	ExistingPersons int
	// PersonFraction in [0,1] is the probability an op inserts a person
	// rather than a knows edge; the remainder insert knows edges between
	// known persons. The first op of the stream is always a person insert
	// when ExistingPersons is 0 (an edge needs endpoints).
	PersonFraction float64
	// Seed makes the stream reproducible: equal configs generate
	// byte-identical streams.
	Seed int64
}

// UpdateStream generates a deterministic sequence of insert batches:
// person inserts (keys "up1", "up2", ...) interleaved with knows-edge
// inserts (keys "uk1", "uk2", ...) whose endpoints are drawn from the
// base graph's p%d persons and the stream's own already-inserted ones.
// Later batches may reference persons inserted by earlier batches, and
// later ops within one batch may reference persons inserted earlier in
// the same batch — exercising both cross-batch and intra-batch
// visibility of a live store.
func UpdateStream(cfg UpdateConfig) ([]graph.Batch, error) {
	if cfg.Batches < 1 || cfg.OpsPerBatch < 1 {
		return nil, fmt.Errorf("ldbc: Batches and OpsPerBatch must be >= 1, got %d/%d", cfg.Batches, cfg.OpsPerBatch)
	}
	if cfg.ExistingPersons < 0 {
		return nil, fmt.Errorf("ldbc: ExistingPersons must be >= 0, got %d", cfg.ExistingPersons)
	}
	if cfg.PersonFraction < 0 || cfg.PersonFraction > 1 {
		return nil, fmt.Errorf("ldbc: PersonFraction must be in [0,1], got %g", cfg.PersonFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The endpoint pool: base persons first, stream persons appended as
	// they are inserted.
	pool := make([]string, 0, cfg.ExistingPersons+cfg.Batches*cfg.OpsPerBatch)
	for i := 0; i < cfg.ExistingPersons; i++ {
		pool = append(pool, fmt.Sprintf("p%d", i+1))
	}
	type pair struct{ a, b string }
	seen := make(map[pair]bool)

	personSeq, knowsSeq := 0, 0
	batches := make([]graph.Batch, cfg.Batches)
	for bi := range batches {
		ops := make([]graph.Op, 0, cfg.OpsPerBatch)
		misses := 0 // consecutive duplicate/self-loop draws
		for len(ops) < cfg.OpsPerBatch {
			// Force a person insert when edges are impossible (tiny pool)
			// or the pair space looks saturated, so the loop always
			// terminates even at PersonFraction 0.
			insertPerson := rng.Float64() < cfg.PersonFraction || len(pool) < 2 || misses > 16
			if insertPerson {
				misses = 0
				personSeq++
				key := fmt.Sprintf("up%d", personSeq)
				ops = append(ops, graph.Op{
					Kind:  graph.OpAddNode,
					Key:   key,
					Label: LabelPerson,
					Props: graph.Props("name", fmt.Sprintf("Update_%d", personSeq), "id", int64(1_000_000+personSeq)),
				})
				pool = append(pool, key)
				continue
			}
			src := pool[rng.Intn(len(pool))]
			dst := pool[rng.Intn(len(pool))]
			if src == dst || seen[pair{src, dst}] {
				misses++
				continue
			}
			misses = 0
			seen[pair{src, dst}] = true
			knowsSeq++
			ops = append(ops, graph.Op{
				Kind:  graph.OpAddEdge,
				Key:   fmt.Sprintf("uk%d", knowsSeq),
				Src:   src,
				Dst:   dst,
				Label: LabelKnows,
			})
		}
		batches[bi] = graph.Batch{Ops: ops}
	}
	return batches, nil
}
