package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
)

const obsQuery = `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`

// drainTraced pages a cursor to exhaustion, returning every path line
// and the final trailer.
func drainTraced(t *testing.T, base, id string) ([]pathJSON, pageTrailer) {
	t.Helper()
	all, trailer, _ := drainPathBytes(t, base, id)
	return all, trailer
}

// drainPathBytes is drainTraced that also counts the bytes of the path
// lines received, newlines included.
func drainPathBytes(t *testing.T, base, id string) ([]pathJSON, pageTrailer, int64) {
	t.Helper()
	var all []pathJSON
	var pathBytes int64
	for page := 0; ; page++ {
		if page > 100 {
			t.Fatal("cursor never exhausted")
		}
		resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", base, id))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Path lines precede the trailer, the page's last line.
		pathBytes += int64(bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n') + 1)
		resp.Body = io.NopCloser(bytes.NewReader(body))
		paths, trailer := readPage(t, resp)
		all = append(all, paths...)
		if trailer.Done {
			return all, trailer, pathBytes
		}
	}
}

// expositionLine matches one sample of the Prometheus text format:
// name{labels} value.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]`)

// TestMetricsEndpoint exercises the service, scrapes GET /metrics and
// checks the exposition is well-formed and carries the expected families
// across all four layers (server, engine, store, WAL).
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery}))
	drainTraced(t, ts.URL, qr.ID)
	postJSON(t, ts.URL+"/reach", reachRequest{Query: obsQuery, Mode: "pairs"}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}

	samples := map[string]string{} // "name{labels}" -> value
	sc := bufio.NewScanner(resp.Body)
	var body strings.Builder
	for sc.Scan() {
		line := sc.Text()
		body.WriteString(line)
		body.WriteByte('\n')
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		samples[key] = line[strings.LastIndexByte(line, ' ')+1:]
	}
	text := body.String()

	for _, want := range []string{
		// server layer
		`pathalgebra_queries_started_total`,
		`pathalgebra_queries_completed_total`,
		`pathalgebra_paths_delivered_total`,
		`pathalgebra_pages_served_total`,
		`pathalgebra_cursors_opened_total`,
		`pathalgebra_http_inflight`,
		`pathalgebra_http_requests_total{endpoint="query"}`,
		`pathalgebra_http_requests_total{endpoint="next"}`,
		`pathalgebra_http_request_seconds_count{endpoint="query"}`,
		`pathalgebra_http_request_seconds_bucket{endpoint="query",le="+Inf"}`,
		// engine layer
		`pathalgebra_engine_paths_produced_total`,
		`pathalgebra_engine_plan_cache_hits_total`,
		`pathalgebra_engine_reach_kernel_runs_total`,
		`pathalgebra_engine_budget_exhaustions_total`,
		`pathalgebra_engine_seed_scans_total`,
		// store layer
		`pathalgebra_store_epoch`,
		`pathalgebra_store_delta_size`,
		`pathalgebra_store_compactions_total`,
		`pathalgebra_graph_nodes`,
		// WAL layer (histograms expose _count even when empty)
		`pathalgebra_wal_append_seconds_count`,
		`pathalgebra_wal_fsync_seconds_count`,
		`pathalgebra_checkpoint_seconds_count`,
		`pathalgebra_compaction_seconds_count`,
		// runtime
		`pathalgebra_goroutines`,
		`pathalgebra_heap_alloc_bytes`,
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("exposition missing series %s", want)
		}
	}
	// HELP/TYPE lines precede each family exactly once.
	for _, fam := range []string{"pathalgebra_queries_started_total", "pathalgebra_http_request_seconds"} {
		if got := strings.Count(text, "# HELP "+fam+" "); got != 1 {
			t.Errorf("HELP %s appears %d times, want 1", fam, got)
		}
		if got := strings.Count(text, "# TYPE "+fam+" "); got != 1 {
			t.Errorf("TYPE %s appears %d times, want 1", fam, got)
		}
	}
	if v := samples["pathalgebra_queries_started_total"]; v != "1" {
		t.Errorf("queries_started_total = %s, want 1", v)
	}
	if v := samples[`pathalgebra_http_requests_total{endpoint="query"}`]; v != "1" {
		t.Errorf("http_requests_total{query} = %s, want 1", v)
	}
}

// findSpan returns the first span named name in the forest, depth first.
func findSpan(spans []*obs.SpanJSON, name string) *obs.SpanJSON {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if f := findSpan(s.Children, name); f != nil {
			return f
		}
	}
	return nil
}

// spanNames collects the names of a span forest, depth-first.
func spanNames(spans []*obs.SpanJSON) []string {
	var out []string
	for _, sp := range spans {
		out = append(out, sp.Name)
		out = append(out, spanNames(sp.Children)...)
	}
	return out
}

// checkSpanBounds asserts every child span lies within its parent's
// [start, start+dur] window (at microsecond rounding tolerance).
func checkSpanBounds(t *testing.T, sp *obs.SpanJSON) {
	t.Helper()
	if sp.DurUS < 0 {
		t.Errorf("span %s has negative duration %d", sp.Name, sp.DurUS)
	}
	for _, c := range sp.Children {
		if c.StartUS+1 < sp.StartUS || c.StartUS+c.DurUS > sp.StartUS+sp.DurUS+1 {
			t.Errorf("child %s [%d,+%d] escapes parent %s [%d,+%d]",
				c.Name, c.StartUS, c.DurUS, sp.Name, sp.StartUS, sp.DurUS)
		}
		checkSpanBounds(t, c)
	}
}

// TestQueryTrace asks for a trace on POST /query and checks the final
// page's trailer carries a consistent span tree covering every phase.
func TestQueryTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery, Trace: true, ChunkSize: 3}))
	paths, trailer, pathBytes := drainPathBytes(t, ts.URL, qr.ID)
	if len(paths) == 0 {
		t.Fatal("no result paths")
	}
	if len(trailer.Trace) == 0 {
		t.Fatal("final trailer has no trace")
	}
	// One deliver span per page; their bytes are what the client received.
	var delivered, deliverSpans int64
	for _, sp := range trailer.Trace[0].Children {
		if sp.Name == "deliver" {
			delivered += sp.Attrs["bytes"]
			deliverSpans++
		}
	}
	if wantPages := int64(len(paths)+2) / 3; deliverSpans != wantPages || delivered != pathBytes {
		t.Errorf("%d deliver spans carry %d bytes; the client received %d pages, %d path-line bytes", deliverSpans, delivered, wantPages, pathBytes)
	}
	// One encode span beside them, for the whole result.
	var encodes []*obs.SpanJSON
	for _, sp := range trailer.Trace[0].Children {
		if sp.Name == "encode" {
			encodes = append(encodes, sp)
		}
	}
	if len(encodes) != 1 || encodes[0].Attrs["paths"] != int64(len(paths)) || encodes[0].Attrs["bytes"] != pathBytes {
		t.Errorf("encode spans %+v, want one with paths=%d bytes=%d", encodes, len(paths), pathBytes)
	}
	root := trailer.Trace[0]
	if root.Name != "query" {
		t.Fatalf("root span %q, want query", root.Name)
	}
	names := spanNames(trailer.Trace)
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"query", "parse", "plan", "cache_probe", "eval", "search", "merge", "encode", "deliver"} {
		if !seen[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
	// The search runs on the query's goroutine: no per-worker shard span,
	// and one search span over every node of the all-pairs query.
	if seen["shard"] {
		t.Errorf("trace has a shard span (have %v)", names)
	}
	if search := findSpan(trailer.Trace, "search"); search != nil {
		if n := int64(ldbc.Figure1().NumNodes()); search.Attrs["sources"] != n {
			t.Errorf("search span sources = %d, want the node count %d", search.Attrs["sources"], n)
		}
		for _, k := range []string{"paths", "arena_bytes", "max_frontier"} {
			if search.Attrs[k] <= 0 {
				t.Errorf("search span %s = %d, want > 0", k, search.Attrs[k])
			}
		}
	}
	checkSpanBounds(t, root)

	// Non-final pages must not carry the trace; only Done pages do.
	qr2 := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery, Trace: true, ChunkSize: 3, NoCache: true}))
	resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr2.ID))
	if err != nil {
		t.Fatal(err)
	}
	_, tr1 := readPage(t, resp)
	if !tr1.Done && tr1.Trace != nil {
		t.Error("non-final page carries a trace")
	}
	drainTraced(t, ts.URL, qr2.ID)

	// An untraced query must not carry one either.
	qr3 := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery, NoCache: true}))
	_, tr3 := drainTraced(t, ts.URL, qr3.ID)
	if tr3.Trace != nil {
		t.Error("untraced query trailer carries a trace")
	}

	// A traced hit encodes nothing: it pages the first query's encoding.
	qr4 := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery, Trace: true, ChunkSize: 3}))
	_, tr4 := drainTraced(t, ts.URL, qr4.ID)
	if !qr4.Cached || findSpan(tr4.Trace, "encode") != nil || findSpan(tr4.Trace, "deliver") == nil {
		t.Errorf("traced query (cached %v) has spans %v, want deliver and no encode", qr4.Cached, spanNames(tr4.Trace))
	}
}

// TestQueryOperatorSpans: a traced query's trailer holds one span per
// operator the run evaluated — here π, which evaluates its τ and γ in one
// node, and the seeded σ, but not the ϕ and atoms its search answers —
// nested as in the plan, and the root operator's paths is the result
// size. π's span counts the solution space's partitions and groups.
func TestQueryOperatorSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})
	qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query",
		queryRequest{Query: `MATCH ANY SHORTEST TRAIL p = (?x:Person)-[:Knows+]->(?y)`, Trace: true, NoCache: true}))
	_, trailer := drainTraced(t, ts.URL, qr.ID)
	var eval *obs.SpanJSON
	for _, sp := range trailer.Trace[0].Children {
		if sp.Name == "eval" {
			eval = sp
		}
	}
	if eval == nil || len(eval.Children) != 1 {
		t.Fatalf("want one root operator span under eval, trace: %v", spanNames(trailer.Trace))
	}
	root := eval.Children[0]
	if !strings.HasPrefix(root.Name, "π") || root.Attrs["paths"] != int64(trailer.Total) {
		t.Errorf("root operator %s paths=%d, want π with paths=%d", root.Name, root.Attrs["paths"], trailer.Total)
	}
	// γST makes one partition of one group per endpoint pair, and ANY
	// SHORTEST keeps one path of each.
	if p, g := root.Attrs["partitions"], root.Attrs["groups"]; p != int64(trailer.Total) || g != int64(trailer.Total) {
		t.Errorf("π partitions=%d groups=%d, want %d each", p, g, trailer.Total)
	}
	var ops []string
	for _, name := range spanNames(eval.Children) {
		if r := []rune(name)[0]; strings.ContainsRune("πτγσϕ⋈∪ρ", r) || strings.HasSuffix(name, "(G)") {
			ops = append(ops, string(r))
		}
	}
	if got := strings.Join(ops, ""); got != "πσ" {
		t.Errorf("operator spans %q, want πσ (depth first): %v", got, spanNames(eval.Children))
	}
}

// TestTraceDifferential checks tracing is observation-only: the traced
// run's path lines are identical to the untraced run's. The search runs
// on the query's one goroutine, so the single subtest is that run.
func TestTraceDifferential(t *testing.T) {
	t.Run("parallelism1", func(t *testing.T) {
		g := ldbc.MustGenerate(ldbc.Config{
			Persons: 60, Messages: 60, KnowsPerPerson: 3, LikesPerPerson: 2,
			CycleFraction: 0.3, Seed: 11,
		})
		_, ts := newTestServer(t, Config{Graph: g, Engine: engine.Options{
			Limits: core.Limits{MaxLen: 5, MaxPaths: 1 << 20, MaxWork: 1 << 30},
		}})
		run := func(trace bool) []pathJSON {
			qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query",
				queryRequest{Query: obsQuery, Trace: trace, NoCache: true, ChunkSize: 50000}))
			paths, _ := drainTraced(t, ts.URL, qr.ID)
			return paths
		}
		plain, traced := run(false), run(true)
		if len(plain) != len(traced) {
			t.Fatalf("traced run: %d paths, untraced %d", len(traced), len(plain))
		}
		for i := range plain {
			if fmt.Sprint(plain[i]) != fmt.Sprint(traced[i]) {
				t.Fatalf("path %d diverges:\n untraced %v\n traced   %v", i, plain[i], traced[i])
			}
		}
	})
}

// syncWriter serializes writes from the completion watcher goroutine
// against the test's reads.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestSlowQueryLog arms a threshold every query exceeds and checks the
// structured log line and counter fire.
func TestSlowQueryLog(t *testing.T) {
	buf := &syncWriter{}
	prev := log.Writer()
	log.SetOutput(io.MultiWriter(prev, buf))
	defer log.SetOutput(prev)

	_, ts := newTestServer(t, Config{
		Graph:     ldbc.Figure1(),
		Engine:    engine.Options{Limits: core.Limits{MaxLen: 4}},
		SlowQuery: time.Nanosecond,
	})
	qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery}))
	drainTraced(t, ts.URL, qr.ID)

	// The slow-query log fires from the completion watcher; poll /stats.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := decodeBody[statsResponse](t, mustGet(t, ts.URL+"/stats"))
		if st.Server.SlowQueries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow_queries counter never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query log line in %q", out)
	}
	for _, want := range []string{"query=", "plan=", "trace: ", "limits="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %q: %q", want, out)
		}
	}
}

// TestReachTrace checks ?trace=1 on POST /reach returns a span tree on
// both the evaluated and the cached path, and that cached entries do not
// leak the original request's trace.
func TestReachTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	first := decodeBody[reachResponse](t, postJSON(t, ts.URL+"/reach?trace=1", reachRequest{Query: obsQuery, Mode: "pairs"}))
	if first.Cached {
		t.Fatal("first reach unexpectedly cached")
	}
	if len(first.Trace) == 0 || first.Trace[0].Name != "reach" {
		t.Fatalf("first reach trace = %+v, want rooted at \"reach\"", first.Trace)
	}
	names := spanNames(first.Trace)
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"parse", "plan", "cache_probe", "eval"} {
		if !seen[want] {
			t.Errorf("reach trace missing span %q (have %v)", want, names)
		}
	}
	checkSpanBounds(t, first.Trace[0])

	// Cache hit: still traced (the probe), and untraced requests get none.
	second := decodeBody[reachResponse](t, postJSON(t, ts.URL+"/reach", reachRequest{Query: obsQuery, Mode: "pairs", Trace: true}))
	if !second.Cached {
		t.Fatal("second reach missed the cache")
	}
	if len(second.Trace) == 0 {
		t.Error("cached reach with trace=true carries no trace")
	}
	third := decodeBody[reachResponse](t, postJSON(t, ts.URL+"/reach", reachRequest{Query: obsQuery, Mode: "pairs"}))
	if third.Trace != nil {
		t.Error("untraced reach response carries a trace")
	}

	// An eligible plan runs the product BFS: one "bfs" span under "eval",
	// whose pairs are the response's count.
	walk := decodeBody[reachResponse](t, postJSON(t, ts.URL+"/reach?trace=1",
		reachRequest{Query: `MATCH WALK p = (?x:Person)-[:Knows+]->(?y)`, Mode: "pairs"}))
	if !walk.Kernel || walk.Count == 0 {
		t.Fatalf("eligible reach: kernel=%v count=%d, want the product BFS and some pairs", walk.Kernel, walk.Count)
	}
	var bfs *obs.SpanJSON
	for _, c := range walk.Trace[0].Children {
		if c.Name != "eval" {
			continue
		}
		for _, cc := range c.Children {
			if cc.Name == "bfs" {
				bfs = cc
			}
		}
	}
	if bfs == nil {
		t.Fatalf("eligible reach trace has no eval > bfs span (have %v)", spanNames(walk.Trace))
	}
	if bfs.Attrs["pairs"] != int64(walk.Count) || bfs.Attrs["sources"] == 0 || bfs.Attrs["states"] < bfs.Attrs["sources"] {
		t.Errorf("bfs span attrs = %v, want pairs = %d, sources > 0 and states >= sources", bfs.Attrs, walk.Count)
	}
	checkSpanBounds(t, walk.Trace[0])
}
