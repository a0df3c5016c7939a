package main

import (
	"math"
	"sort"
)

// metricDef is one entry of the harness's metric registry. BENCHMARK.json
// lists the same names, units and directions; the smoke test fails when
// the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Workloads the metric is measured on; nil means all five. On the
	// others the driver line carries 0 ("the layer did no work here") and
	// the suite document omits the metric.
	Workloads []string
	// Exact marks counts that depend only on the seed, never on timing:
	// -selfcheck requires them to repeat exactly.
	Exact bool
}

func (m metricDef) on(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	reachWorkloads = []string{"interactive", "live_ingest", "scale"}
	ingestOnly     = []string{"live_ingest"}
	kernelOnly     = []string{"interactive", "live_ingest"}
)

// e2eMetrics are what a user of the service sees. Every one is defined on
// every workload, because the driver contract has one end-to-end list for
// all workloads and forbids zeros. Their regression bounds live in
// BENCHMARK.json only.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "paths_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
}

// layerMetrics are single-layer and diagnostic numbers: no bound. The
// first seven are user-visible but cannot be end-to-end metrics under the
// driver's contract, which has one list for all workloads, forbids zeros
// and refuses a metric that runs of the same code spread past its bound.
// query_p95_ms and first_page_p50_ms did (25% on delivery on the driver's
// host): the slowest twentieth of a run's queries are the ones that met a
// busy stretch of the host, and a first page from a cached result is
// under a millisecond of loopback round trips. Three exist on some
// workloads only, failed_ratio is expected to be 0, and peak_rss_mb, a
// maximum over GC cycles, differs by up to 30% between runs of the small
// workloads.
var layerMetrics = []metricDef{
	{Name: "query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "first_page_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "reach_p50_ms", Unit: "ms", Better: "lower", Workloads: reachWorkloads},
	{Name: "ingest_ops_per_s", Unit: "1/s", Better: "higher", Workloads: ingestOnly},
	{Name: "ingest_ack_p50_ms", Unit: "ms", Better: "lower", Workloads: ingestOnly},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "gql.parse_us", Unit: "us", Better: "lower"},
	{Name: "gql.compile_us", Unit: "us", Better: "lower"},
	{Name: "opt.plan_cold_us", Unit: "us", Better: "lower"},

	{Name: "engine.plan_hit_us", Unit: "us", Better: "lower"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.join_ms", Unit: "ms", Better: "lower", Workloads: []string{"selectors"}},
	{Name: "engine.stream_us_per_page", Unit: "us", Better: "lower"},
	{Name: "engine.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "engine.produced_per_result", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "automaton.compile_us", Unit: "us", Better: "lower"},
	{Name: "automaton.search_ms", Unit: "ms", Better: "lower"},
	{Name: "automaton.search_par_ms", Unit: "ms", Better: "lower"},
	{Name: "automaton.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "automaton.paths_per_ms", Unit: "1/ms", Better: "higher"},

	{Name: "core.groupby_ms", Unit: "ms", Better: "lower"},
	{Name: "core.orderby_ms", Unit: "ms", Better: "lower"},
	{Name: "core.project_ms", Unit: "ms", Better: "lower"},

	{Name: "pathset.add_ns_per_path", Unit: "ns", Better: "lower"},
	{Name: "pathset.merge_ns_per_path", Unit: "ns", Better: "lower"},

	{Name: "reach.kernel_us", Unit: "us", Better: "lower", Workloads: kernelOnly},
	{Name: "reach.fallback_us", Unit: "us", Better: "lower", Workloads: reachWorkloads},
	{Name: "reach.kernel_ratio", Unit: "ratio", Better: "higher", Workloads: reachWorkloads},
	{Name: "graph.bitset_build_ms", Unit: "ms", Better: "lower", Workloads: kernelOnly},
	{Name: "graph.bitset_mb", Unit: "MB", Better: "lower", Workloads: kernelOnly, Exact: true},

	{Name: "server.post_us", Unit: "us", Better: "lower"},
	{Name: "server.next_us_per_page", Unit: "us", Better: "lower"},
	{Name: "server.encode_ns_per_path", Unit: "ns", Better: "lower"},
	{Name: "server.bytes_per_path", Unit: "B", Better: "lower", Exact: true},
	{Name: "server.allocs_per_path", Unit: "count", Better: "lower"},
	{Name: "server.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.reach_cache_hit_ratio", Unit: "ratio", Better: "higher", Workloads: reachWorkloads},
	{Name: "server.rejected_ratio", Unit: "ratio", Better: "lower"},

	{Name: "http.overhead_us_per_request", Unit: "us", Better: "lower"},
	{Name: "http.query_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "graph.apply_us_per_batch", Unit: "us", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.apply_durable_us_per_batch", Unit: "us", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.wal_fsync_us", Unit: "us", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.wal_bytes_per_op", Unit: "B", Better: "lower", Workloads: ingestOnly, Exact: true},
	{Name: "graph.wal_write_amp", Unit: "ratio", Better: "lower", Workloads: ingestOnly, Exact: true},
	{Name: "graph.compact_ms", Unit: "ms", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.checkpoint_ms", Unit: "ms", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.compactions", Unit: "count", Better: "higher", Workloads: ingestOnly},
	{Name: "graph.overlay_read_ratio", Unit: "ratio", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.recovery_ms", Unit: "ms", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.ingest_ack_p95_ms", Unit: "ms", Better: "lower", Workloads: ingestOnly},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.heap_mb_after_build", Unit: "MB", Better: "lower"},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.layer_walk_skipped", Unit: "count", Better: "lower", Exact: true},
	{Name: "bench.share_delivery_pct", Unit: "%", Better: "lower"},
	{Name: "bench.share_search_pct", Unit: "%", Better: "lower"},
	{Name: "bench.share_fixed_pct", Unit: "%", Better: "lower"},
}

// value is one reported number. Samples is how many measurements stand
// behind it (1 for a rate or a counter read once).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet collects values by name and fills in units from the registry
// when rendered.
type metricSet map[string]value

func (m metricSet) set(name string, v float64, samples int) {
	m[name] = value{Value: v, Samples: samples}
}

// render keeps the metrics of defs that apply to workload, attaching
// units. With padZero a metric that does not apply (or was not measured
// because the traced run was off) is reported as 0 rather than omitted —
// the driver line must carry every name.
func (m metricSet) render(defs []metricDef, workload string, padZero bool) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || !d.on(workload) {
			if !padZero {
				continue
			}
			v = value{}
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}

// percentile is the nearest-rank q-quantile of xs, which must be sorted
// ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
