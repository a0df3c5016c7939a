package server

import (
	"net/http"
	"runtime"
	"time"

	"pathalgebra/internal/engine"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
)

// endpoints names every routed endpoint for the per-endpoint HTTP
// metrics. The set is fixed at construction so the instrument middleware
// does a map lookup once at registration, never per request.
var endpoints = []string{
	"query", "reach", "next", "cancel", "ingest",
	"stats", "explain", "invalidate", "healthz", "metrics",
}

// serverMetrics is the server's obs instrument set: every service-level
// counter that used to live in hand-rolled atomics, plus the per-endpoint
// HTTP request/latency families. The registry is per-server (tests run
// many servers per process); process-wide sources (WAL latency, runtime
// stats) are registered as collectors so each server's /metrics exposes
// them without owning them.
type serverMetrics struct {
	reg *obs.Registry

	started   *obs.Counter // queries admitted to evaluation
	completed *obs.Counter // evaluations finishing without error
	failed    *obs.Counter // evaluations finishing with an error
	rejected  *obs.Counter // requests refused by admission control
	cancelled *obs.Counter // DELETEs and sweeper evictions
	paths     *obs.Counter // path lines delivered
	pages     *obs.Counter // pages served

	ingests     *obs.Counter // batches applied via POST /ingest
	ingestedOps *obs.Counter // ops across those batches

	panics      *obs.Counter // panics recovered in handlers and background goroutines
	slowQueries *obs.Counter // evaluations at or above Config.SlowQuery

	cursorsOpened  *obs.Counter // cursors registered
	cursorsExpired *obs.Counter // cursors evicted by the idle sweeper

	httpInFlight *obs.Gauge
	httpRequests map[string]*obs.Counter
	httpLatency  map[string]*obs.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:            reg,
		started:        reg.Counter("pathalgebra_queries_started_total", "Queries admitted to evaluation."),
		completed:      reg.Counter("pathalgebra_queries_completed_total", "Evaluations finishing without error."),
		failed:         reg.Counter("pathalgebra_queries_failed_total", "Evaluations finishing with an error."),
		rejected:       reg.Counter("pathalgebra_queries_rejected_total", "Requests refused by admission control."),
		cancelled:      reg.Counter("pathalgebra_queries_cancelled_total", "Queries cancelled by DELETE, sweeper eviction or server close."),
		paths:          reg.Counter("pathalgebra_paths_delivered_total", "Path lines delivered over NDJSON pages."),
		pages:          reg.Counter("pathalgebra_pages_served_total", "Cursor pages served."),
		ingests:        reg.Counter("pathalgebra_ingest_batches_total", "Mutation batches applied via POST /ingest."),
		ingestedOps:    reg.Counter("pathalgebra_ingest_ops_total", "Mutation ops across applied batches."),
		panics:         reg.Counter("pathalgebra_panics_recovered_total", "Panics recovered in handlers and background goroutines."),
		slowQueries:    reg.Counter("pathalgebra_slow_queries_total", "Evaluations at or above the slow-query threshold."),
		cursorsOpened:  reg.Counter("pathalgebra_cursors_opened_total", "Result cursors registered."),
		cursorsExpired: reg.Counter("pathalgebra_cursors_expired_total", "Result cursors evicted by the idle sweeper."),
		httpInFlight:   reg.Gauge("pathalgebra_http_inflight", "HTTP requests currently being served."),
		httpRequests:   make(map[string]*obs.Counter, len(endpoints)),
		httpLatency:    make(map[string]*obs.Histogram, len(endpoints)),
	}
	for _, ep := range endpoints {
		l := obs.Label{Name: "endpoint", Value: ep}
		m.httpRequests[ep] = reg.Counter("pathalgebra_http_requests_total", "HTTP requests by endpoint.", l)
		m.httpLatency[ep] = reg.Histogram("pathalgebra_http_request_seconds", "HTTP request latency by endpoint.", l)
	}
	return m
}

// instrument wraps a handler with the per-endpoint request counter,
// latency histogram and the shared in-flight gauge. Endpoint names are
// resolved at registration (one map lookup here, zero per request).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.metrics.httpRequests[endpoint]
	lat := s.metrics.httpLatency[endpoint]
	inflight := s.metrics.httpInFlight
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		inflight.Add(1)
		defer func() {
			inflight.Add(-1)
			lat.ObserveSince(t0)
		}()
		h(w, r)
	}
}

// handle registers a route through the instrument middleware.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(endpoint, h))
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// registerCollectors wires the scrape-time sources into the registry:
// engine counters, store and cache state, WAL latency histograms,
// and runtime health. Collectors read live state on every scrape — they
// cost nothing between scrapes.
func (s *Server) registerCollectors() {
	reg := s.metrics.reg

	reg.GaugeFunc("pathalgebra_queries_inflight", "Queries currently evaluating (admission-controlled).",
		func() int64 { return s.inflight.Load() })
	reg.GaugeFunc("pathalgebra_cursors_live", "Live result cursors.",
		func() int64 { return int64(s.cursors.len()) })

	for _, c := range []struct {
		name, help string
		pick       func(engine.Stats) int64
	}{
		{"pathalgebra_engine_paths_produced_total", "Paths produced by engine operators.", func(st engine.Stats) int64 { return st.PathsProduced }},
		{"pathalgebra_engine_join_probes_total", "Join index probes.", func(st engine.Stats) int64 { return st.JoinProbes }},
		{"pathalgebra_engine_indexed_scans_total", "Label-indexed edge scans.", func(st engine.Stats) int64 { return st.IndexedScans }},
		{"pathalgebra_engine_recursions_total", "Recursive operator evaluations.", func(st engine.Stats) int64 { return st.Recursions }},
		{"pathalgebra_engine_expanded_recursions_total", "Recursions via automaton expansion.", func(st engine.Stats) int64 { return st.ExpandedRecursions }},
		{"pathalgebra_engine_seeded_recursions_total", "Recursions seeded from endpoint conditions.", func(st engine.Stats) int64 { return st.SeededRecursions }},
		{"pathalgebra_engine_seed_scans_total", "Seed sets computed by scanning every node (no equality conjunct had postings).", func(st engine.Stats) int64 { return st.SeedScans }},
		{"pathalgebra_engine_backward_recursions_total", "Recursions evaluated backward.", func(st engine.Stats) int64 { return st.BackwardRecursions }},
		{"pathalgebra_engine_quota_recursions_total", "Recursions searched under a pushed-down selector quota.", func(st engine.Stats) int64 { return st.QuotaRecursions }},
		{"pathalgebra_engine_reach_kernel_runs_total", "Path-free answers via the product BFS.", func(st engine.Stats) int64 { return st.ReachKernelRuns }},
		{"pathalgebra_engine_reach_fallbacks_total", "Path-free answers via enumeration of an ineligible plan.", func(st engine.Stats) int64 { return st.ReachFallbacks }},
		{"pathalgebra_engine_plan_cache_hits_total", "Plan cache hits.", func(st engine.Stats) int64 { return st.PlanCacheHits }},
		{"pathalgebra_engine_plan_cache_misses_total", "Plan cache misses.", func(st engine.Stats) int64 { return st.PlanCacheMisses }},
		{"pathalgebra_engine_budget_exhaustions_total", "Evaluations aborted by budget exhaustion.", func(st engine.Stats) int64 { return st.BudgetExhaustions }},
		{"pathalgebra_engine_fingerprint_collisions_total", "Path-set fingerprint collisions resolved by exact comparison.", func(st engine.Stats) int64 { return st.FingerprintCollisions }},
	} {
		reg.CounterFunc(c.name, c.help, func() int64 { return c.pick(s.engine.Stats()) })
	}

	reg.GaugeFunc("pathalgebra_result_cache_entries", "Result LRU entries.",
		func() int64 { e, _, _ := s.cache.snapshot(); return int64(e) })
	reg.CounterFunc("pathalgebra_result_cache_hits_total", "Result LRU hits.",
		func() int64 { _, h, _ := s.cache.snapshot(); return h })
	reg.CounterFunc("pathalgebra_result_cache_misses_total", "Result LRU misses.",
		func() int64 { _, _, m := s.cache.snapshot(); return m })
	reg.GaugeFunc("pathalgebra_reach_cache_entries", "Reach LRU entries.",
		func() int64 { e, _, _ := s.reach.snapshot(); return int64(e) })
	reg.CounterFunc("pathalgebra_reach_cache_hits_total", "Reach LRU hits.",
		func() int64 { _, h, _ := s.reach.snapshot(); return h })
	reg.CounterFunc("pathalgebra_reach_cache_misses_total", "Reach LRU misses.",
		func() int64 { _, _, m := s.reach.snapshot(); return m })

	reg.GaugeFunc("pathalgebra_graph_nodes", "Live nodes in the served view.",
		func() int64 { return int64(s.store.Graph().LiveNodes()) })
	reg.GaugeFunc("pathalgebra_graph_edges", "Live edges in the served view.",
		func() int64 { return int64(s.store.Graph().LiveEdges()) })
	reg.GaugeFunc("pathalgebra_graph_symbols", "Distinct edge symbols.",
		func() int64 { return int64(s.store.Graph().NumSymbols()) })

	reg.GaugeFunc("pathalgebra_store_epoch", "Current store epoch.",
		func() int64 { return int64(s.store.Epoch()) })
	reg.GaugeFunc("pathalgebra_store_delta_size", "Delta-overlay records since last compaction.",
		func() int64 { return int64(s.store.DeltaSize()) })
	reg.CounterFunc("pathalgebra_store_compactions_total", "Completed compactions.",
		func() int64 { return int64(s.store.Compactions()) })
	reg.CounterFunc("pathalgebra_store_compaction_errors_total", "Compaction attempts that failed (compactor degraded, not fatal).",
		func() int64 { ce, _ := s.store.CompactionErrors(); return int64(ce) })
	reg.CounterFunc("pathalgebra_store_checkpoints_total", "WAL checkpoints taken.",
		func() int64 { return int64(s.store.Checkpoints()) })
	reg.GaugeFunc("pathalgebra_wal_records", "Records in the live WAL segment.",
		func() int64 { rec, _, _ := s.store.WALStats(); return int64(rec) })
	reg.GaugeFunc("pathalgebra_wal_bytes", "Bytes in the live WAL segment.",
		func() int64 { _, b, _ := s.store.WALStats(); return b })
	reg.RegisterHistogram("pathalgebra_wal_append_seconds", "WAL append latency, lock acquired to record durable.", graph.WALAppendSeconds())
	reg.RegisterHistogram("pathalgebra_wal_fsync_seconds", "WAL fsync latency.", graph.WALFsyncSeconds())
	reg.RegisterHistogram("pathalgebra_checkpoint_seconds", "Checkpoint latency, snapshot write through WAL reset.", graph.CheckpointSeconds())
	reg.RegisterHistogram("pathalgebra_compaction_seconds", "Compaction latency, delta fold into a sealed graph (inline reseals included).", graph.CompactionSeconds())

	reg.GaugeFunc("pathalgebra_goroutines", "Goroutines in the process.",
		func() int64 { return int64(runtime.NumGoroutine()) })
	reg.GaugeFunc("pathalgebra_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() int64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return int64(m.HeapAlloc) })
	reg.CounterFunc("pathalgebra_gc_pause_ns_total", "Cumulative GC stop-the-world pause.",
		func() int64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return int64(m.PauseTotalNs) })
	reg.CounterFunc("pathalgebra_gc_cycles_total", "Completed GC cycles.",
		func() int64 { var m runtime.MemStats; runtime.ReadMemStats(&m); return int64(m.NumGC) })
}
