package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

func postBody(t *testing.T, url, contentType, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainCursor pages a freshly created cursor to completion and returns
// the concatenated path lines.
func drainCursor(t *testing.T, baseURL, id string) []pathJSON {
	t.Helper()
	var got []pathJSON
	for {
		resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", baseURL, id))
		if err != nil {
			t.Fatal(err)
		}
		paths, trailer := readPage(t, resp)
		got = append(got, paths...)
		if trailer.Done {
			return got
		}
	}
}

// TestIngestEndpoint: NDJSON and CSV batches apply through the HTTP
// surface, the epoch advances, and subsequent queries see the new data.
func TestIngestEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	// Before: the Knows subgraph from n4 is empty (n4 has no out-Knows).
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y) WHERE first.name = "Apu"`, NoCache: true})
	qr := decodeBody[queryResponse](t, resp)
	if before := drainCursor(t, ts.URL, qr.ID); len(before) != 0 {
		t.Fatalf("pre-ingest paths from Apu = %d, want 0", len(before))
	}

	ing := postBody(t, ts.URL+"/ingest", "application/x-ndjson",
		`{"op":"add_edge","key":"e-new","src":"n4","dst":"n1","label":"Knows"}`+"\n")
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", ing.StatusCode)
	}
	ir := decodeBody[ingestResponse](t, ing)
	if ir.Epoch != 1 || ir.Ops != 1 || ir.Edges != 12 {
		t.Fatalf("ingest response = %+v", ir)
	}

	resp = postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y) WHERE first.name = "Apu"`, NoCache: true})
	qr = decodeBody[queryResponse](t, resp)
	after := drainCursor(t, ts.URL, qr.ID)
	if len(after) == 0 {
		t.Fatal("post-ingest query does not see the new edge")
	}
	for _, p := range after {
		if p.Nodes[0] != "n4" {
			t.Fatalf("path starts at %s, want n4", p.Nodes[0])
		}
	}

	// CSV form.
	csvBody := "op,key,src,dst,label\ndel_edge,e-new,,,\n"
	ing = postBody(t, ts.URL+"/ingest", "text/csv", csvBody)
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("CSV ingest status = %d", ing.StatusCode)
	}
	if ir := decodeBody[ingestResponse](t, ing); ir.Epoch != 2 || ir.Edges != 11 {
		t.Fatalf("CSV ingest response = %+v", ir)
	}
}

// TestIngestErrors: parse failures are 400, validation failures are 422
// kind "validation" (the typed-sentinel contract), and failed batches
// apply nothing.
func TestIngestErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Graph: ldbc.Figure1()})

	cases := []struct {
		name, body string
		status     int
		kind       string
	}{
		{"malformed json", `{"op":`, http.StatusBadRequest, "bad_request"},
		{"empty batch", "\n\n", http.StatusBadRequest, "bad_request"},
		{"unknown op", `{"op":"upsert","key":"x"}`, http.StatusBadRequest, "bad_request"},
		{"two ops on a line", `{"op":"add_node","key":"q1"} {"op":"add_node","key":"q2"}`, http.StatusBadRequest, "bad_request"},
		{"duplicate key", `{"op":"add_node","key":"n1","label":"Person"}`, http.StatusUnprocessableEntity, "validation"},
		{"unknown endpoint", `{"op":"add_edge","key":"zz","src":"n1","dst":"nope","label":"Knows"}`, http.StatusUnprocessableEntity, "validation"},
		{"unknown delete", `{"op":"del_node","key":"nope"}`, http.StatusUnprocessableEntity, "validation"},
		{"atomic", "{\"op\":\"add_node\",\"key\":\"ghost\",\"label\":\"Person\"}\n{\"op\":\"del_node\",\"key\":\"nope\"}", http.StatusUnprocessableEntity, "validation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postBody(t, ts.URL+"/ingest", "application/x-ndjson", tc.body)
			er := decodeBody[errorResponse](t, resp)
			if resp.StatusCode != tc.status || er.Kind != tc.kind {
				t.Fatalf("status/kind = %d/%q (%s), want %d/%q", resp.StatusCode, er.Kind, er.Error, tc.status, tc.kind)
			}
		})
	}
	if s.store.Epoch() != 0 {
		t.Fatalf("failed ingests advanced the epoch to %d", s.store.Epoch())
	}
	if _, ok := s.store.Graph().NodeByKey("ghost"); ok {
		t.Fatal("prefix of a failed batch leaked into the store")
	}
}

// TestIngestFootprintInvalidation: the result cache invalidates by label
// footprint — a delta touching Likes evicts Likes-reading entries and
// leaves Knows-only entries servable.
func TestIngestFootprintInvalidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	knowsQ := `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`
	likesQ := `MATCH TRAIL p = (?x)-[:Likes]->(?y)`

	// Populate both cache entries (cursor must complete for admission).
	for _, q := range []string{knowsQ, likesQ} {
		resp := postJSON(t, ts.URL+"/query", queryRequest{Query: q})
		qr := decodeBody[queryResponse](t, resp)
		drainCursor(t, ts.URL, qr.ID)
	}
	// Both hit now.
	for _, q := range []string{knowsQ, likesQ} {
		resp := postJSON(t, ts.URL+"/query", queryRequest{Query: q})
		qr := decodeBody[queryResponse](t, resp)
		if !qr.Cached {
			t.Fatalf("%s not cached after completion", q)
		}
		drainCursor(t, ts.URL, qr.ID)
	}

	// A Likes-only delta: n2 likes message n7.
	ing := postBody(t, ts.URL+"/ingest", "application/x-ndjson",
		`{"op":"add_edge","key":"likes-new","src":"n2","dst":"n7","label":"Likes"}`+"\n")
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", ing.StatusCode)
	}

	// Knows entry survives (its footprint does not read Likes)...
	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: knowsQ})
	qr := decodeBody[queryResponse](t, resp)
	if !qr.Cached {
		t.Fatal("Knows entry evicted by a Likes-only delta")
	}
	drainCursor(t, ts.URL, qr.ID)

	// ...and the Likes entry recomputes against the new epoch.
	resp = postJSON(t, ts.URL+"/query", queryRequest{Query: likesQ})
	qr = decodeBody[queryResponse](t, resp)
	if qr.Cached {
		t.Fatal("stale Likes entry served after a Likes delta")
	}
	likesPaths := drainCursor(t, ts.URL, qr.ID)
	found := false
	for _, p := range likesPaths {
		if len(p.Edges) == 1 && p.Edges[0] == "likes-new" {
			found = true
		}
	}
	if !found {
		t.Fatal("recomputed Likes result misses the ingested edge")
	}

	// Deleting a node (touches node labels + cascaded edge labels)
	// invalidates the Knows entry too.
	ing = postBody(t, ts.URL+"/ingest", "application/x-ndjson",
		`{"op":"del_node","key":"n2"}`+"\n")
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", ing.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/query", queryRequest{Query: knowsQ})
	qr = decodeBody[queryResponse](t, resp)
	if qr.Cached {
		t.Fatal("stale Knows entry served after deleting a Knows endpoint")
	}
	for _, p := range drainCursor(t, ts.URL, qr.ID) {
		for _, n := range p.Nodes {
			if n == "n2" {
				t.Fatal("recomputed result contains the deleted node")
			}
		}
	}
	_ = s
}

// TestInvalidatedProbeCountsAsMiss: a probe that finds an entry the
// label footprint has invalidated is a miss in /stats, not a hit — for
// the result cache and the reach cache alike.
func TestInvalidatedProbeCountsAsMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})
	stats := func() statsResponse { return decodeBody[statsResponse](t, mustGet(t, ts.URL+"/stats")) }
	query := func() {
		qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: knowsWalk}))
		drainCursor(t, ts.URL, qr.ID)
	}
	reach := func() {
		resp := postJSON(t, ts.URL+"/reach", reachRequest{Query: knowsWalk, Mode: "pairs"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reach status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	query()
	reach()
	// The result cache admits on the evaluation's completion watcher,
	// which may trail the cursor's last page.
	deadline := time.Now().Add(5 * time.Second)
	for stats().ResultCache.Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("completed query never entered the result cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := stats()

	ing := postBody(t, ts.URL+"/ingest", "application/x-ndjson",
		`{"op":"add_edge","key":"knows-new","src":"n4","dst":"n1","label":"Knows"}`+"\n")
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", ing.StatusCode)
	}
	ing.Body.Close()
	query()
	reach()

	after := stats()
	for _, c := range []struct {
		name          string
		before, after cacheStats
	}{
		{"result cache", before.ResultCache, after.ResultCache},
		{"reach cache", before.ReachCache, after.ReachCache},
	} {
		if c.after.Hits != c.before.Hits || c.after.Misses != c.before.Misses+1 {
			t.Errorf("%s: hits %d -> %d, misses %d -> %d; want hits unchanged, misses +1",
				c.name, c.before.Hits, c.after.Hits, c.before.Misses, c.after.Misses)
		}
	}
}

// TestAdmissionSweepsInvalidated: an entry a batch invalidated leaves the
// result cache at the next admission, probed or not. After a batch that
// touches Knows, admitting one more result leaves /stats counting only
// the entries whose plans do not read Knows.
func TestAdmissionSweepsInvalidated(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})
	entries := func() int { return decodeBody[statsResponse](t, mustGet(t, ts.URL+"/stats")).ResultCache.Entries }
	admit := func(want int, queries ...string) {
		t.Helper()
		for _, q := range queries {
			qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: q}))
			drainCursor(t, ts.URL, qr.ID)
		}
		// The completion watcher admits a result after its last page.
		deadline := time.Now().Add(5 * time.Second)
		for entries() != want {
			if time.Now().After(deadline) {
				t.Fatalf("result cache holds %d entries, want %d", entries(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	admit(5,
		`MATCH TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)`,
		`MATCH ALL SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
		`MATCH TRAIL p = (?x)-[:Likes]->(?y)`,
		`MATCH TRAIL p = (?x)-[:Has_creator]->(?y)`)

	ing := postBody(t, ts.URL+"/ingest", "application/x-ndjson",
		`{"op":"add_edge","key":"knows-new","src":"n4","dst":"n1","label":"Knows"}`+"\n")
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", ing.StatusCode)
	}
	ing.Body.Close()
	if got := entries(); got != 5 {
		t.Fatalf("a batch alone changed the result cache to %d entries, want 5", got)
	}
	admit(3, `MATCH TRAIL p = (?x)-[:Likes/:Has_creator]->(?y)`)
}

// TestSweepUnderConcurrentAdmission admits and probes entries from
// several goroutines while batches land: under -race the sweep shares
// the cache safely, and once the last admission after the last batch
// has swept, every entry left is still valid.
func TestSweepUnderConcurrentAdmission(t *testing.T) {
	store := graph.NewStore(ldbc.Figure1(), graph.StoreOptions{CompactThreshold: -1})
	defer store.Close()
	c := newFootprintCache[int](store, 64)
	footprints := []graph.Footprint{{EdgeLabels: []string{"Knows"}}, {EdgeLabels: []string{"Likes"}}, {NodeLabels: []string{"Person"}}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				_, epoch := store.Current()
				key := fmt.Sprint(w, i%40)
				c.put(key, i, epoch, footprints[(w+i)%len(footprints)])
				c.get(key)
			}
		}(w)
	}
	for i := 0; i < 30; i++ {
		label := []string{"Knows", "Likes"}[i%2]
		op := graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprint("e-new", i), Src: "n1", Dst: "n2", Label: label}
		if _, err := store.Apply(graph.Batch{Ops: []graph.Op{op}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	c.put("last", 0, store.Epoch(), graph.Footprint{})
	c.entries.DeleteFunc(func(key string, ent stamped[int]) bool {
		if !store.ValidAt(ent.fp, ent.epoch) {
			t.Errorf("entry %q (epoch %d, %+v) survived the sweep at epoch %d", key, ent.epoch, ent.fp, store.Epoch())
		}
		return false
	})
}

// TestStatsStoreSection: /stats surfaces epoch, delta and compaction
// counters.
func TestStatsStoreSection(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1()})
	postBody(t, ts.URL+"/ingest", "application/x-ndjson",
		`{"op":"add_node","key":"extra","label":"Person"}`+"\n").Body.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[statsResponse](t, resp)
	if st.Store.Epoch != 1 || st.Store.DeltaNodes != 1 || st.Store.Ingests != 1 || st.Store.IngestedOps != 1 {
		t.Fatalf("store stats = %+v", st.Store)
	}
	if st.Graph.Nodes != 8 {
		t.Fatalf("graph nodes = %d, want 8 (live count)", st.Graph.Nodes)
	}
}

// TestCursorSurvivesIngestAndCompaction: a cursor opened pre-ingest
// pages its own epoch's bytes even after the store mutates and
// compacts under it.
func TestCursorSurvivesIngestAndCompaction(t *testing.T) {
	s, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})

	resp := postJSON(t, ts.URL+"/query", queryRequest{Query: `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`, ChunkSize: 2, NoCache: true})
	qr := decodeBody[queryResponse](t, resp)

	// Read one page, then mutate the Knows subgraph and compact.
	first, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID))
	if err != nil {
		t.Fatal(err)
	}
	paths, trailer := readPage(t, first)
	if trailer.Done {
		t.Fatalf("result exhausted on first page (total %d)", trailer.Total)
	}
	ing := postBody(t, ts.URL+"/ingest", "application/x-ndjson",
		strings.Join([]string{
			`{"op":"del_edge","key":"e2"}`,
			`{"op":"add_edge","key":"e2x","src":"n2","dst":"n1","label":"Knows"}`,
		}, "\n"))
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", ing.StatusCode)
	}
	if err := s.store.Compact(); err != nil {
		t.Fatal(err)
	}

	got := append([]pathJSON(nil), paths...)
	got = append(got, drainCursor(t, ts.URL, qr.ID)...)
	// Every path must be a pre-ingest Knows path: e2x never appears, e2
	// still does (the cursor's epoch predates the delete).
	sawE2 := false
	for _, p := range got {
		for _, e := range p.Edges {
			if e == "e2x" {
				t.Fatal("cursor leaked a post-ingest edge")
			}
			if e == "e2" {
				sawE2 = true
			}
		}
	}
	if !sawE2 {
		t.Fatal("cursor lost the deleted edge its epoch still contains")
	}
	if len(got) != trailer.Total {
		t.Fatalf("paged %d paths, trailer total %d", len(got), trailer.Total)
	}
}
