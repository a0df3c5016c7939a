package server

import (
	"errors"
	"net/http"
	"strings"

	"pathalgebra/internal/graph"
)

// ingestMaxBody bounds the accepted batch body (64 MiB).
const ingestMaxBody = 64 << 20

// ingestResponse is the body of a successful POST /ingest.
type ingestResponse struct {
	// Epoch is the store epoch the batch produced; queries admitted after
	// this response observe it.
	Epoch uint64 `json:"epoch"`
	// Ops is the number of operations applied (the whole batch: batches
	// are atomic, all ops or none).
	Ops int `json:"ops"`
	// Nodes and Edges are the live object counts after the batch.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// DeltaSize is the store's overlay size after the batch — how far it
	// is from its next compaction.
	DeltaSize int `json:"delta_size"`
}

// handleIngest applies one batch of graph mutations. The body is NDJSON
// (one op object per line: {"op":"add_node","key":...,"label":...,
// "props":...} / add_edge with src+dst / del_node / del_edge) by
// default, or CSV with header op,key,src,dst,label when Content-Type is
// text/csv. The batch is atomic: a malformed body is a 400 and a
// validation failure (duplicate key, unknown node, unknown key, invalid
// UTF-8 — the typed graph.Err* sentinels) is a 422, and in both cases
// nothing is applied.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, ingestMaxBody)
	ct := r.Header.Get("Content-Type")
	var batch graph.Batch
	var err error
	if strings.HasPrefix(ct, "text/csv") {
		batch, err = graph.ReadBatchCSV(body)
	} else {
		batch, err = graph.ReadBatchNDJSON(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if len(batch.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty batch")
		return
	}
	epoch, err := s.store.Apply(batch)
	if err != nil {
		if errors.Is(err, graph.ErrDuplicateKey) || errors.Is(err, graph.ErrUnknownNode) ||
			errors.Is(err, graph.ErrUnknownKey) || errors.Is(err, graph.ErrInvalidValue) {
			writeError(w, http.StatusUnprocessableEntity, "validation", "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	s.metrics.ingests.Inc()
	s.metrics.ingestedOps.Add(int64(len(batch.Ops)))
	g := s.store.Graph()
	writeJSON(w, http.StatusOK, ingestResponse{
		Epoch:     epoch,
		Ops:       len(batch.Ops),
		Nodes:     g.LiveNodes(),
		Edges:     g.LiveEdges(),
		DeltaSize: s.store.DeltaSize(),
	})
}
