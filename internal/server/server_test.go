package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/pathset"
)

// newTestServer starts an httptest server over the given graph/config.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// readPage decodes one NDJSON cursor page into its path lines and
// trailer.
func readPage(t *testing.T, resp *http.Response) ([]pathJSON, pageTrailer) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		t.Fatalf("page status %d: %s", resp.StatusCode, body.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("page Content-Type = %q, want application/x-ndjson", ct)
	}
	var paths []pathJSON
	var trailer pageTrailer
	sawTrailer := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if sawTrailer {
			t.Fatalf("line after trailer: %s", line)
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if _, isPath := probe["nodes"]; isPath {
			var p pathJSON
			if err := json.Unmarshal(line, &p); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
			continue
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			t.Fatal(err)
		}
		sawTrailer = true
	}
	if !sawTrailer {
		t.Fatal("page without trailer line")
	}
	return paths, trailer
}

// slowGraph makes Walk queries run long enough to cancel mid-flight.
func slowGraph() *graph.Graph {
	return ldbc.MustGenerate(ldbc.Config{
		Persons: 300, Messages: 300, KnowsPerPerson: 4, LikesPerPerson: 3,
		CycleFraction: 0.5, Seed: 7,
	})
}

const slowQuery = `MATCH WALK p = (?x)-[(:Knows|:Likes)+]->(?y)`

// slowLimits keeps the budget generous so only cancellation stops it.
var slowLimits = core.Limits{MaxLen: 40, MaxPaths: 1 << 30, MaxWork: 1 << 40}

// TestCursorLifecycle drives a cursor through a full result set and
// checks the pages reassemble the exact engine result, then exercises
// the result cache on a re-POST and its explicit invalidation.
func TestCursorLifecycle(t *testing.T) {
	g := ldbc.Figure1()
	_, ts := newTestServer(t, Config{Graph: g, Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	// Reference result through the library path.
	eng := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: 4}})
	want, err := eng.Run(gql.MustCompile(`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`))
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`, ChunkSize: 3})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /query status = %d", resp.StatusCode)
	}
	qr := decodeBody[queryResponse](t, resp)
	if qr.ID == "" || qr.Cached {
		t.Fatalf("POST /query = %+v, want fresh id, not cached", qr)
	}

	var got []pathJSON
	pages := 0
	for {
		resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID))
		if err != nil {
			t.Fatal(err)
		}
		paths, trailer := readPage(t, resp)
		got = append(got, paths...)
		pages++
		if len(paths) > 3 {
			t.Fatalf("page of %d paths, want <= chunk 3", len(paths))
		}
		if trailer.Done {
			if trailer.Total != want.Len() || trailer.Delivered != int64(want.Len()) {
				t.Fatalf("trailer = %+v, want total=delivered=%d", trailer, want.Len())
			}
			break
		}
		if pages > want.Len()+2 {
			t.Fatal("cursor never reported done")
		}
	}
	if len(got) != want.Len() {
		t.Fatalf("streamed %d paths, want %d", len(got), want.Len())
	}
	// Page order is the engine's deterministic result order.
	for i, p := range want.Paths() {
		if gotKey := strings.Join(got[i].Nodes, ","); gotKey == "" {
			t.Fatalf("path %d: empty nodes", i)
		} else if g.Node(p.First()).Key != got[i].Nodes[0] {
			t.Fatalf("path %d starts at %s, want %s", i, got[i].Nodes[0], g.Node(p.First()).Key)
		}
	}

	// Exhausted cursor is gone.
	resp2, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after exhaustion status = %d, want 404", resp2.StatusCode)
	}
	resp2.Body.Close()

	// Same query again: result-cache hit, total known up front.
	resp3 := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`})
	qr3 := decodeBody[queryResponse](t, resp3)
	if !qr3.Cached || qr3.Total == nil || *qr3.Total != want.Len() {
		t.Fatalf("re-POST = %+v, want cached with total %d", qr3, want.Len())
	}

	// Explicit invalidation empties the LRU.
	resp4 := postJSON(t, ts.URL+"/cache/invalidate", struct{}{})
	inv := decodeBody[map[string]int](t, resp4)
	if inv["invalidated"] == 0 {
		t.Fatalf("invalidate = %v, want >= 1 entries dropped", inv)
	}
	resp5 := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`})
	if qr5 := decodeBody[queryResponse](t, resp5); qr5.Cached {
		t.Fatalf("post-invalidation POST = %+v, want uncached", qr5)
	}
}

// TestCancellationPrompt: DELETE of a running query stops its evaluation
// goroutines within 100ms.
func TestCancellationPrompt(t *testing.T) {
	s, ts := newTestServer(t, Config{Graph: slowGraph(), Engine: engine.Options{Limits: slowLimits}})
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: slowQuery})
	qr := decodeBody[queryResponse](t, resp)
	cur, ok := s.cursors.get(qr.ID)
	if !ok {
		t.Fatal("cursor not registered")
	}
	time.Sleep(30 * time.Millisecond) // let the evaluation get going

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/query/%s", ts.URL, qr.ID), nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", delResp.StatusCode)
	}
	cancelled := time.Now()
	select {
	case <-cur.stream.Done():
		if since := time.Since(cancelled); since > 100*time.Millisecond {
			t.Errorf("evaluation stopped %v after DELETE, want < 100ms", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation still running 5s after DELETE")
	}
	if _, err := cur.stream.Result(); err == nil {
		t.Error("cancelled evaluation returned no error")
	}
}

// TestQueryDeadline: a per-request timeout_ms surfaces as HTTP 504 on
// the first page.
func TestQueryDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: slowGraph(), Engine: engine.Options{Limits: slowLimits}})
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: slowQuery, TimeoutMS: 30})
	qr := decodeBody[queryResponse](t, resp)
	next, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID))
	if err != nil {
		t.Fatal(err)
	}
	er := decodeBody[errorResponse](t, next)
	if next.StatusCode != http.StatusGatewayTimeout || er.Kind != "deadline_exceeded" {
		t.Fatalf("next after deadline = %d %+v, want 504 deadline_exceeded", next.StatusCode, er)
	}
}

// TestBudgetExceededStatus: budget exhaustion maps to 422, distinct from
// cancellation statuses.
func TestBudgetExceededStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1()})
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH WALK p = (?x)-[:Knows+]->(?y)`, MaxPaths: 2})
	qr := decodeBody[queryResponse](t, resp)
	next, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID))
	if err != nil {
		t.Fatal(err)
	}
	er := decodeBody[errorResponse](t, next)
	if next.StatusCode != http.StatusUnprocessableEntity || er.Kind != "budget_exceeded" {
		t.Fatalf("next after budget = %d %+v, want 422 budget_exceeded", next.StatusCode, er)
	}
}

// TestAdmissionControl: beyond MaxInFlight concurrent evaluations POST
// returns 429; a cache hit slips past admission (it evaluates nothing).
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Graph:       slowGraph(),
		Engine:      engine.Options{Limits: slowLimits},
		MaxInFlight: 1,
	})
	first := postJSON(t, ts.URL+"/query", queryRequest{Query: slowQuery})
	if first.StatusCode != http.StatusCreated {
		t.Fatalf("first POST status = %d", first.StatusCode)
	}
	qr := decodeBody[queryResponse](t, first)

	second := postJSON(t, ts.URL+"/query", queryRequest{Query: slowQuery + ` `, NoCache: true})
	er := decodeBody[errorResponse](t, second)
	if second.StatusCode != http.StatusTooManyRequests || er.Kind != "over_capacity" {
		t.Fatalf("second POST = %d %+v, want 429 over_capacity", second.StatusCode, er)
	}

	// Free the slot; admission recovers.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/query/%s", ts.URL, qr.ID), nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		third := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows]->(?y)`})
		code := third.StatusCode
		third.Body.Close()
		if code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission never recovered after DELETE (last status %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBadRequests: parse errors and unknown cursors are typed client
// errors.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1()})
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH NONSENSE (`})
	if er := decodeBody[errorResponse](t, resp); resp.StatusCode != http.StatusBadRequest || er.Kind != "bad_request" {
		t.Fatalf("bad query = %d %+v", resp.StatusCode, er)
	}
	resp2 := postJSON(t, ts.URL+"/query", map[string]any{"quarry": "typo"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp2.StatusCode)
	}
	resp2.Body.Close()
	resp3, err := http.Get(ts.URL + "/query/nope/next")
	if err != nil {
		t.Fatal(err)
	}
	if er := decodeBody[errorResponse](t, resp3); resp3.StatusCode != http.StatusNotFound || er.Kind != "not_found" {
		t.Fatalf("unknown cursor = %d %+v", resp3.StatusCode, er)
	}
}

// TestStatsAndExplain: the observability endpoints surface engine and
// server counters and the planned operator table.
func TestStatsAndExplain(t *testing.T) {
	g := ldbc.Figure1()
	_, ts := newTestServer(t, Config{Graph: g, Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	// Evaluate something so counters move.
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`})
	qr := decodeBody[queryResponse](t, resp)
	next, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID))
	if err != nil {
		t.Fatal(err)
	}
	readPage(t, next)

	st, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[statsResponse](t, st)
	if stats.Graph.Nodes != g.NumNodes() || stats.Server.Started == 0 || stats.Server.Pages == 0 {
		t.Fatalf("stats = %+v, want graph nodes %d and nonzero started/pages", stats, g.NumNodes())
	}
	if stats.Engine.Recursions == 0 || stats.Server.Paths == 0 {
		t.Fatalf("stats = %+v, want nonzero recursions and delivered paths", stats)
	}

	ex := postJSON(t, ts.URL+"/explain", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`})
	exr := decodeBody[explainResponse](t, ex)
	if !strings.Contains(exr.Text, "operators (estimated vs actual)") || exr.Plan == "" {
		t.Fatalf("explain = %+v, want operator table and plan", exr)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}
	hz.Body.Close()
}

// TestExplainSeededBudget: /explain of a seeded query under a max_paths
// its answer fits in and the all-pairs recursion does not succeeds, with
// the total /query returns for the same request.
func TestExplainSeededBudget(t *testing.T) {
	g := ldbc.MustGenerate(ldbc.Config{Persons: 60, Messages: 120, KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: 1})
	_, ts := newTestServer(t, Config{Graph: g, Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})
	total := func(req queryRequest) int {
		t.Helper()
		qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", req))
		_, trailer := drainTraced(t, ts.URL, qr.ID)
		return trailer.Total
	}
	seeded := `MATCH TRAIL p = (?x:Person {id:7})-[:Knows+]->(?y)`
	answer := total(queryRequest{Query: seeded, NoCache: true})
	all := total(queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`, NoCache: true})
	req := queryRequest{Query: seeded, MaxPaths: (answer + all) / 2, NoCache: true}
	if answer == 0 || req.MaxPaths <= answer || req.MaxPaths >= all {
		t.Fatalf("fixture: seeded %d, all-pairs %d paths; need a budget strictly between", answer, all)
	}
	resp := postJSON(t, ts.URL+"/explain", req)
	if resp.StatusCode != http.StatusOK {
		er := decodeBody[errorResponse](t, resp)
		t.Fatalf("/explain under max_paths %d = %d %+v, want 200", req.MaxPaths, resp.StatusCode, er)
	}
	ex := decodeBody[explainResponse](t, resp)
	if want := total(req); ex.Total != want {
		t.Errorf("/explain total %d, /query total %d", ex.Total, want)
	}
}

// TestDrain: Close aborts running evaluations with the ErrDraining cause
// (HTTP 503 kind "draining" on the next page read).
func TestDrain(t *testing.T) {
	s, err := New(Config{Graph: slowGraph(), Engine: engine.Options{Limits: slowLimits}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: slowQuery})
	qr := decodeBody[queryResponse](t, resp)
	cur, ok := s.cursors.get(qr.ID)
	if !ok {
		t.Fatal("cursor not registered")
	}
	time.Sleep(20 * time.Millisecond)
	closed := time.Now()
	s.Close()
	select {
	case <-cur.stream.Done():
		if since := time.Since(closed); since > 100*time.Millisecond {
			t.Errorf("evaluation stopped %v after Close, want < 100ms", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation still running 5s after Close")
	}
	if _, err := cur.stream.Result(); err == nil {
		t.Error("drained evaluation returned no error")
	}
}

// TestPerQueryLimits: request-level limits apply to that request only, on
// the one engine that serves every request. /query, /reach and /explain
// each honor them; the plan cache holds one plan per (plan, limits); and
// eight clients mixing limits get exactly what an engine built with their
// limits returns.
func TestPerQueryLimits(t *testing.T) {
	g := ldbc.Figure1()
	// Admission control is not under test: room for every client below.
	_, ts := newTestServer(t, Config{Graph: g, MaxInFlight: 64})
	// MaxLen 1 keeps only single-edge trails.
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`, MaxLen: 1})
	qr := decodeBody[queryResponse](t, resp)
	next, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID))
	if err != nil {
		t.Fatal(err)
	}
	paths, trailer := readPage(t, next)
	if !trailer.Done {
		t.Fatal("single page expected")
	}
	for _, p := range paths {
		if p.Len != 1 {
			t.Fatalf("path of length %d under max_len 1", p.Len)
		}
	}
	knows := len(g.EdgesWithLabel(ldbc.LabelKnows))
	if len(paths) != knows {
		t.Fatalf("got %d paths, want the %d :Knows edges", len(paths), knows)
	}

	// The same query at the default limits, max_len 1 and max_len 2, over
	// every evaluating endpoint, twice: the first round plans once per
	// limits, the second is served from the caches.
	const q = `MATCH TRAIL p = (?x:Person)-[:Knows+]->(?y)` // 12, 4 and 9 paths
	statsNow := func() engine.Stats {
		st, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decodeBody[statsResponse](t, st).Engine
	}
	before := statsNow()
	for round := 0; round < 2; round++ {
		for _, maxLen := range []int{0, 1, 2} {
			lim := core.Limits{MaxLen: maxLen}
			want, err := engine.New(g, engine.Options{Limits: lim}).Run(gql.MustCompile(q))
			if err != nil {
				t.Fatal(err)
			}
			got, cached, err := fetchQuery(ts.URL, queryRequest{Query: q, MaxLen: maxLen})
			if err != nil {
				t.Fatal(err)
			}
			if got != renderSet(g, want) || cached != (round == 1) {
				t.Errorf("round %d max_len %d: /query (cached %v) returned\n%s\nwant\n%s", round, maxLen, cached, got, renderSet(g, want))
			}
			rr := decodeBody[reachResponse](t, postJSON(t, ts.URL+"/reach", reachRequest{Query: q, Mode: "count-paths", MaxLen: maxLen}))
			if rr.Count != want.Len() || rr.Cached != (round == 1) {
				t.Errorf("round %d max_len %d: /reach = %+v, want count %d", round, maxLen, rr, want.Len())
			}
			// /query planned it under these limits already.
			ex := decodeBody[explainResponse](t, postJSON(t, ts.URL+"/explain", queryRequest{Query: q, MaxLen: maxLen}))
			if ex.Total != want.Len() || !ex.CacheHit {
				t.Errorf("round %d max_len %d: /explain total %d cache hit %v, want %d and a hit", round, maxLen, ex.Total, ex.CacheHit, want.Len())
			}
		}
		// Round 0 plans 5 times per limits (/query plans, then evaluates;
		// /reach likewise; /explain once), round 1 3 times (cache hits
		// evaluate nothing): 3 misses, then 12 and 21 hits.
		st := statsNow()
		misses, hits := st.PlanCacheMisses-before.PlanCacheMisses, st.PlanCacheHits-before.PlanCacheHits
		if wantHits := int64(12 + 9*round); misses != 3 || hits != wantHits {
			t.Errorf("after round %d: %d plan-cache misses and %d hits, want 3 and %d", round, misses, hits, wantHits)
		}
	}

	// Eight clients, mixed limits, mixed cache use, one engine.
	queries := []string{
		`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ACYCLIC p = (?x)-[(:Knows|:Likes)+]->(?y)`,
		`MATCH ANY SHORTEST TRAIL p = (?x:Person)-[:Knows+]->(?y)`,
	}
	want := map[string]string{}
	for _, q := range queries {
		for maxLen := 0; maxLen <= 3; maxLen++ {
			set, err := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: maxLen}}).Run(gql.MustCompile(q))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(q, maxLen)] = renderSet(g, set)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				q, maxLen := queries[(c+i)%len(queries)], (c*i+i)%4
				got, _, err := fetchQuery(ts.URL, queryRequest{Query: q, MaxLen: maxLen, ChunkSize: 4, NoCache: i%2 == 0})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if got != want[fmt.Sprint(q, maxLen)] {
					t.Errorf("client %d: %s at max_len %d differs from a fresh engine's answer", c, q, maxLen)
				}
			}
		}(c)
	}
	wg.Wait()
}

// fetchQuery posts a query and pages its cursor to completion, returning
// the path lines exactly as they came over the wire and whether the
// result came from the result cache. It reports failures as errors, so
// client goroutines can call it.
func fetchQuery(base string, req queryRequest) (string, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", false, err
	}
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	var qr queryResponse
	err = json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return "", false, fmt.Errorf("POST /query: status %d (%v)", resp.StatusCode, err)
	}
	var lines strings.Builder
	for {
		resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", base, qr.ID))
		if err != nil {
			return "", false, err
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return "", false, fmt.Errorf("GET next: status %d (%v)", resp.StatusCode, err)
		}
		// Path lines, then one trailer line; the page ends in a newline.
		last := bytes.LastIndexByte(page[:len(page)-1], '\n') + 1
		lines.Write(page[:last])
		var trailer pageTrailer
		if err := json.Unmarshal(page[last:], &trailer); err != nil {
			return "", false, fmt.Errorf("page trailer: %w", err)
		}
		if trailer.Done {
			return lines.String(), qr.Cached, nil
		}
	}
}

// renderSet renders a result set as the NDJSON path lines of its pages.
func renderSet(g *graph.Graph, set *pathset.Set) string {
	var sb strings.Builder
	for _, p := range set.Paths() {
		writeNDJSON(&sb, encodePath(g, p))
	}
	return sb.String()
}
