package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// encodeQuery is the query the encode-once tests page; encodeLimits keeps
// its results to a few hundred paths on smallGraph.
const encodeQuery = `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`

var encodeLimits = core.Limits{MaxLen: 3}

func smallGraph() *graph.Graph {
	cfg := ldbc.DefaultConfig()
	cfg.Persons, cfg.Messages = 30, 60
	return ldbc.MustGenerate(cfg)
}

// referenceLines renders engine.Run's result of query on g with the
// per-line writer.
func referenceLines(t *testing.T, g *graph.Graph, query string, lim core.Limits) []byte {
	t.Helper()
	set, err := engine.New(g, engine.Options{Limits: lim}).Run(gql.MustCompile(query))
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := writePathLinesReference(&ref, g, set.Paths()); err != nil {
		t.Fatal(err)
	}
	return ref.Bytes()
}

// jsonKey is encoding/json's rendering of a key, quotes included.
func jsonKey(k string) []byte {
	b, _ := json.Marshal(k)
	return b
}

// pagedLines posts query and pages its cursor to the end at chunk,
// checking that the cursor is (or is not) a cache hit and that no page
// holds more than chunk lines, and returns the pages' path lines.
func pagedLines(t *testing.T, base, query string, chunk int, noCache, wantCached bool) []byte {
	t.Helper()
	qr := decodeBody[queryResponse](t, postJSON(t, base+"/query", queryRequest{Query: query, ChunkSize: chunk, NoCache: noCache}))
	if qr.Cached != wantCached {
		t.Fatalf("chunk %d no_cache %v: cached = %v, want %v", chunk, noCache, qr.Cached, wantCached)
	}
	var out []byte
	for page := 0; ; page++ {
		if page > 10_000 {
			t.Fatal("cursor never exhausted")
		}
		resp := mustGet(t, fmt.Sprintf("%s/query/%s/next", base, qr.ID))
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status %d, %v: %s", page, resp.StatusCode, err, body)
		}
		cut := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n') + 1
		var tr pageTrailer
		if err := json.Unmarshal(body[cut:], &tr); err != nil {
			t.Fatalf("page %d trailer %q: %v", page, body[cut:], err)
		}
		if n := bytes.Count(body[:cut], []byte("\n")); n != tr.Returned || n > chunk {
			t.Fatalf("page %d holds %d lines, trailer says %d, chunk %d", page, n, tr.Returned, chunk)
		}
		out = append(out, body[:cut]...)
		if tr.Done {
			return out
		}
	}
}

var encodeChunks = []int{1, 7, 256, 1024}

// checkMissAndHit pages encodeQuery at every chunk size as a miss (after
// emptying the cache), as no_cache, and as the hit the miss left behind,
// and checks each against want.
func checkMissAndHit(t *testing.T, base string, want []byte) {
	t.Helper()
	for _, chunk := range encodeChunks {
		postJSON(t, base+"/cache/invalidate", struct{}{}).Body.Close()
		for _, c := range []struct {
			name            string
			noCache, cached bool
		}{{"miss", false, false}, {"no_cache", true, false}, {"hit", false, true}} {
			if got := pagedLines(t, base, encodeQuery, chunk, c.noCache, c.cached); !bytes.Equal(got, want) {
				t.Errorf("%s at chunk %d: %d bytes diverge from the reference's %d", c.name, chunk, len(got), len(want))
			}
		}
	}
}

// appendPersons appends n persons keyed prefix1..prefixn through st, each
// knowing two base persons and known by two, over edges whose keys need
// escaping (an ampersand, a U+2028).
func appendPersons(t *testing.T, st *graph.Store, prefix string, n int, more ...graph.Op) {
	t.Helper()
	ops := more
	for i := 1; i <= n; i++ {
		key := fmt.Sprintf("%s%d", prefix, i)
		ops = append(ops, graph.Op{Kind: graph.OpAddNode, Key: key, Label: ldbc.LabelPerson})
		for j := 0; j < 2; j++ {
			p := fmt.Sprintf("p%d", 2+(5*i+11*j)%25)
			ops = append(ops,
				graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprintf("%s&out%d", key, j), Src: key, Dst: p, Label: ldbc.LabelKnows},
				graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprintf("%s\u2028in%d", key, j), Src: p, Dst: key, Label: ldbc.LabelKnows})
		}
	}
	if _, err := st.Apply(graph.Batch{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	if st.DeltaSize() == 0 {
		t.Fatal("the batch resealed the graph; want a delta view")
	}
}

// TestPagesMatchReference: the pages of a miss, of a no_cache cursor and
// of the cache hit the miss leaves behind, at chunk sizes 1, 7, 256 and
// 1024, concatenate to the per-line writer's rendering of engine.Run's
// result, on a sealed graph, on a delta view whose paths visit appended
// objects, on keys that need escaping, and on a hit served after a
// compaction renumbered the IDs its paths were evaluated with.
func TestPagesMatchReference(t *testing.T) {
	serve := func(t *testing.T, cfg Config) string {
		cfg.Engine = engine.Options{Limits: encodeLimits}
		_, ts := newTestServer(t, cfg)
		return ts.URL
	}
	t.Run("sealed", func(t *testing.T) {
		g := smallGraph()
		checkMissAndHit(t, serve(t, Config{Graph: g}), referenceLines(t, g, encodeQuery, encodeLimits))
	})
	t.Run("delta", func(t *testing.T) {
		st := graph.NewStore(smallGraph(), graph.StoreOptions{CompactThreshold: -1})
		defer st.Close()
		appendPersons(t, st, "<q>", 4)
		want := referenceLines(t, st.Graph(), encodeQuery, encodeLimits)
		if !bytes.Contains(want, jsonKey("<q>1")) || !bytes.Contains(want, jsonKey("<q>1&out0")) || !bytes.Contains(want, jsonKey("<q>1\u2028in0")) {
			t.Fatal("no path visits the appended persons and edges")
		}
		checkMissAndHit(t, serve(t, Config{Store: st}), want)
	})
	t.Run("escaped", func(t *testing.T) {
		keys := []string{"<a>", "b&c", `"q"`, "u\u2028v", "\xff\xfe", `back\slash`, "tab\t"}
		b := graph.NewBuilder()
		for _, k := range keys {
			b.AddNode(k, ldbc.LabelPerson, nil)
		}
		for i, k := range keys {
			b.AddEdge(k+"→"+keys[(i+1)%len(keys)], k, keys[(i+1)%len(keys)], ldbc.LabelKnows, nil)
			b.AddEdge(k+"⇢"+keys[(i+3)%len(keys)], k, keys[(i+3)%len(keys)], ldbc.LabelKnows, nil)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := referenceLines(t, g, encodeQuery, encodeLimits)
		for _, k := range keys {
			if !bytes.Contains(want, jsonKey(k)) {
				t.Fatalf("reference renders no %q", k)
			}
		}
		checkMissAndHit(t, serve(t, Config{Graph: g}), want)
	})
	t.Run("compacted", func(t *testing.T) {
		st := graph.NewStore(smallGraph(), graph.StoreOptions{CompactThreshold: -1})
		defer st.Close()
		// Deleting p1 shifts every later node down one ID at compaction.
		appendPersons(t, st, "r", 4, graph.Op{Kind: graph.OpDelNode, Key: "p1"})
		evaluated := st.Graph()
		want := referenceLines(t, evaluated, encodeQuery, encodeLimits)
		base := serve(t, Config{Store: st})
		for _, chunk := range encodeChunks {
			postJSON(t, base+"/cache/invalidate", struct{}{}).Body.Close()
			if got := pagedLines(t, base, encodeQuery, chunk, false, false); !bytes.Equal(got, want) {
				t.Errorf("miss at chunk %d diverges from the reference", chunk)
			}
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		before, _ := evaluated.NodeIDByKey("p2")
		after, _ := st.Graph().NodeIDByKey("p2")
		if st.DeltaSize() != 0 || before == after {
			t.Fatalf("compaction left delta %d and p2 at ID %d (was %d); want its IDs renumbered", st.DeltaSize(), after, before)
		}
		for _, chunk := range encodeChunks {
			if got := pagedLines(t, base, encodeQuery, chunk, false, true); !bytes.Equal(got, want) {
				t.Errorf("hit at chunk %d after compaction diverges from the keys of the epoch that evaluated it", chunk)
			}
		}
	})
}

// heapNow collects garbage twice, so that sync.Pool's victim cache
// empties too, and returns the live heap and the part of it the
// collector must scan.
func heapNow() (live, scan uint64) {
	runtime.GC()
	runtime.GC()
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// TestResultCacheNotScanned checks that a cached result is pointer-free
// where it is large: of the live heap that 8 cached results of pageQuery
// add, at most 5% is memory the collector scans. An entry holding the
// result's path set (and the graph view it resolves against) puts every
// path's two slice headers in the scanned heap.
func TestResultCacheNotScanned(t *testing.T) {
	s, ts := newTestServer(t, Config{Graph: pageGraph(), Engine: engine.Options{Limits: pageLimits}})
	// Each distinct max_work is a distinct cache key for the same result.
	fill := func(work int) {
		qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: pageQuery, MaxWork: work, ChunkSize: 65536}))
		if qr.Cached {
			t.Fatalf("max_work %d hit the cache", work)
		}
		drainTraced(t, ts.URL, qr.ID)
	}
	fill(1 << 40) // plans, pools and the client connection, outside the measure
	const n = 8
	live0, scan0 := heapNow()
	for i := 1; i <= n; i++ {
		fill(1<<40 + i)
	}
	live1, scan1 := heapNow()
	if entries, _, _ := s.cache.snapshot(); entries != n+1 {
		t.Fatalf("result cache holds %d entries, want %d", entries, n+1)
	}
	if live1 <= live0 {
		t.Fatalf("live heap did not grow with the cache: %d -> %d bytes", live0, live1)
	}
	grew := live1 - live0
	scanned := int64(scan1) - int64(scan0)
	share := float64(scanned) / float64(grew)
	t.Logf("%d cached results: %d live bytes, %d of them scanned (%.1f%%)", n, grew, scanned, 100*share)
	if share > 0.05 {
		t.Errorf("the collector scans %.1f%% of the %d live bytes %d cached results add, want <= 5%%", 100*share, grew, n)
	}
}
