package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"pathalgebra/internal/fault"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// TestHandlerPanicRecovered: a panic inside request handling becomes an
// HTTP 500 with kind "internal", is counted in /stats, and the server
// keeps serving afterwards — the recovery middleware contract.
func TestHandlerPanicRecovered(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1()})

	restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{
		{Site: "server.handler", Mode: fault.ModePanic, Nth: 1},
	}})
	resp, err := http.Get(ts.URL + "/healthz")
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status = %d, want 500", resp.StatusCode)
	}
	er := decodeBody[errorResponse](t, resp)
	if er.Kind != "internal" {
		t.Fatalf("panicking request kind = %q, want internal", er.Kind)
	}
	if strings.Contains(er.Error, "goroutine") {
		t.Fatalf("error body leaks a stack trace: %q", er.Error)
	}

	// The server survived, and the panic is visible in /stats.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[statsResponse](t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after panic: %d", resp.StatusCode)
	}
	if st.Server.Panics != 1 {
		t.Fatalf("panics_recovered = %d, want 1", st.Server.Panics)
	}
}

// TestWorkerPanicTypedError: a panic inside the product search reaches
// the client as a typed 500 on the cursor page, the cursor is cleaned
// up, and the same query re-run succeeds — one poisoned evaluation does
// not wedge the engine.
func TestWorkerPanicTypedError(t *testing.T) {
	s, ts := newTestServer(t, Config{Graph: ldbc.Figure1()})

	post := func() string {
		resp := postJSON(t, ts.URL+"/query", map[string]any{
			"query": `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`, "max_len": 3, "no_cache": true,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /query = %d", resp.StatusCode)
		}
		return decodeBody[queryResponse](t, resp).ID
	}

	restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{
		{Site: "automaton.source", Mode: fault.ModePanic, Nth: 1},
	}})
	id := post()
	resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, id))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned page status = %d, want 500", resp.StatusCode)
	}
	if er := decodeBody[errorResponse](t, resp); er.Kind != "internal" {
		t.Fatalf("poisoned page kind = %q, want internal", er.Kind)
	}
	if n := s.cursors.len(); n != 0 {
		t.Fatalf("poisoned cursor leaked: table holds %d", n)
	}

	// Same query, no fault: full result.
	id = post()
	resp, err = http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	paths, trailer := readPage(t, resp)
	if len(paths) == 0 || !trailer.Done && trailer.Total == 0 {
		t.Fatalf("re-run after panic returned no results (%d paths)", len(paths))
	}
}

// TestCompactionErrorSurfaced: a failing compaction is absorbed — the
// server keeps serving off the overlay, the failure is visible in
// /stats (compaction_errors + last error), and the compactor's retry
// loop completes the compaction once the fault clears.
func TestCompactionErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	store, err := graph.OpenDurable(dir, ldbc.Figure1(), graph.StoreOptions{CompactThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	_, ts := newTestServer(t, Config{Store: store})

	getStats := func() statsResponse {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decodeBody[statsResponse](t, resp)
	}

	restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: "compact.swap", Prob: 1}}})
	body := `{"op":"add_node","key":"cx1","label":"Person"}
{"op":"add_edge","key":"ce1","src":"n1","dst":"cx1","label":"Knows"}
{"op":"add_node","key":"cx2","label":"Person"}
`
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest under compaction fault = %d (compaction must not gate ingest)", resp.StatusCode)
	}

	// The failure surfaces in /stats while the overlay keeps serving.
	deadline := time.Now().Add(3 * time.Second)
	var st statsResponse
	for {
		st = getStats()
		if st.Store.CompactionErrors > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction_errors never surfaced; stats=%+v", st.Store)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Store.LastCompactionError == "" {
		t.Fatal("compaction_errors > 0 with empty last_compaction_error")
	}
	if st.Graph.Nodes != ldbc.Figure1().LiveNodes()+2 {
		t.Fatalf("overlay reads degraded during compaction failure: %d nodes", st.Graph.Nodes)
	}
	restore()

	// The retry loop (25ms base backoff) completes the compaction and its
	// checkpoint once the fault clears.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st = getStats()
		if st.Store.Compactions >= 1 && st.Store.Checkpoints >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction retry never succeeded; stats=%+v", st.Store)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Store.WALRecords != 0 {
		t.Fatalf("WAL not reset by the recovered checkpoint: %d records", st.Store.WALRecords)
	}
}
