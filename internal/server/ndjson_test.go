package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// pathJSON is a path line decoded, and the reference the append writer's
// bytes are checked against: encoding/json's rendering of it.
type pathJSON struct {
	Nodes []string `json:"nodes"`
	Edges []string `json:"edges"`
	Len   int      `json:"len"`
}

func encodePath(g *graph.Graph, p path.Path) pathJSON {
	nodes := make([]string, len(p.Nodes()))
	for i, n := range p.Nodes() {
		nodes[i] = g.Node(n).Key
	}
	edges := make([]string, len(p.Edges()))
	for i, e := range p.Edges() {
		edges[i] = g.Edge(e).Key
	}
	return pathJSON{Nodes: nodes, Edges: edges, Len: p.Len()}
}

// writePathLinesReference is the per-line writer the append writer
// replaced: one fault hit, one pathJSON and one encoding/json Encode per
// path, each line its own Write.
func writePathLinesReference(w io.Writer, g *graph.Graph, paths []path.Path) error {
	for _, p := range paths {
		if err := writeNDJSON(w, encodePath(g, p)); err != nil {
			return err
		}
	}
	return nil
}

// pageQuery over pageGraph yields more than one 1024-path page.
const pageQuery = `MATCH TRAIL p = (?x)-[:Knows+]->(?y)`

var pageLimits = core.Limits{MaxLen: 4}

func pageGraph() *graph.Graph { return ldbc.MustGenerate(ldbc.DefaultConfig()) }

// pageFixture evaluates pageQuery over pageGraph and returns the graph,
// the result and its first 1024 paths.
func pageFixture(tb testing.TB) (*graph.Graph, *pathset.Set, []path.Path) {
	tb.Helper()
	g := pageGraph()
	set, err := engine.New(g, engine.Options{Limits: pageLimits}).Run(gql.MustCompile(pageQuery))
	if err != nil {
		tb.Fatal(err)
	}
	if set.Len() < 1024 {
		tb.Fatalf("fixture result has %d paths, want >= 1024", set.Len())
	}
	return g, set, set.Paths()[:1024]
}

// FuzzAppendPath: for every path of a WALK over a graph whose keys come
// from the input, the append writer's line is byte-identical to
// json.Marshal of the path's pathJSON plus a newline, and a page is the
// reference writer's page. The graph is checked three times: sealed (keys
// from the Build-time slab), as a Store's delta view after a batch
// appends a node and two edges with input keys (appended keys rendered
// per call, base keys from the base's slab, on paths that mix both), and
// after that delta is compacted into a fresh slab.
func FuzzAppendPath(f *testing.F) {
	for _, keys := range [][7]string{
		{"n1", "n2", "e1", "e2", "n3", "e3", "e4"},
		{"<a>", "b&c", `"q"`, `back\slash`, "<n3>", "e&3", `"e4\`},
		{"\x00\x01", "\x1f", "\x7f", "tab\tnl\n", "\x00", "\x1b[0m", "cr\r\x7f"},
		{"a\u2028b", "\u2029", "x", "y", "\u2028", "x\u2029y", "\u2028\u2029"},
		{"é", "日本", "", "Ω", "ü", "ñ", "😀"},
		{"</script>", "&amp;", "\u00a0", "\ufffd", "</n3>", "\ufffd&", "\\u0041"},
		// Apply refuses both batches: the first names a non-UTF-8 base
		// node, which only the sealed check renders (as \ufffd).
		{"\xff\xfe", "bad\xc3", "a\u2028b", "\u2029", "\u2028", "x\u2029y", "\u2028\u2029"},
		{"p", "q", "r", "s", "bad\xc3", "e3", "e4"},
	} {
		f.Add(keys[0], keys[1], keys[2], keys[3], keys[4], keys[5], keys[6])
	}
	f.Fuzz(func(t *testing.T, n1, n2, e1, e2, n3, e3, e4 string) {
		b := graph.NewBuilder()
		b.AddNode(n1, "Person", nil)
		b.AddNode(n2, "Person", nil)
		b.AddEdge(e1, n1, n2, "a", nil)
		b.AddEdge(e2, n2, n1, "a", nil)
		g, err := b.Build()
		if err != nil {
			return // keys collide; nothing to render
		}
		checkPathLines(t, g)

		st := graph.NewStore(g, graph.StoreOptions{})
		defer st.Close()
		_, err = st.Apply(graph.Batch{Ops: []graph.Op{
			{Kind: graph.OpAddNode, Key: n3, Label: "Person"},
			{Kind: graph.OpAddEdge, Key: e3, Src: n2, Dst: n3, Label: "a"},
			{Kind: graph.OpAddEdge, Key: e4, Src: n3, Dst: n1, Label: "a"},
		}})
		if errors.Is(err, graph.ErrDuplicateKey) || errors.Is(err, graph.ErrInvalidValue) {
			return // a colliding or non-UTF-8 key, rightly refused
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.DeltaSize() != 3 {
			t.Fatalf("delta size %d after appending three objects, want a delta view", st.DeltaSize())
		}
		if mixed := checkPathLines(t, st.Graph()); mixed == 0 {
			t.Fatal("no path on the delta view mixes base and appended objects")
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if st.DeltaSize() != 0 {
			t.Fatalf("delta size %d after compaction", st.DeltaSize())
		}
		checkPathLines(t, st.Graph())
	})
}

// checkPathLines evaluates a WALK over g's "a" edges up to length 3 and
// checks every path's line, and the page of all of them, against
// encoding/json. It returns how many paths visit both a node of the first
// two IDs (the fuzz graph's sealed nodes) and one past them.
func checkPathLines(t *testing.T, g *graph.Graph) (mixed int) {
	t.Helper()
	// The star makes every node a zero-length path too.
	set, err := engine.New(g, engine.Options{Limits: core.Limits{MaxLen: 3}}).Run(gql.MustCompile(`MATCH WALK p = (?x)-[:a*]->(?y)`))
	if err != nil {
		t.Fatal(err)
	}
	zeroLen := 0
	for _, p := range set.Paths() {
		want, err := json.Marshal(encodePath(g, p))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendPathLine(nil, g, p)
		if !bytes.Equal(got, want) {
			t.Fatalf("path %s:\n got  %q\n want %q", p, got, want)
		}
		if p.Len() == 0 {
			zeroLen++
			if !bytes.Contains(got, []byte(`"edges":[]`)) {
				t.Fatalf("zero-length path renders %q, want \"edges\":[]", got)
			}
		}
		base, appended := false, false
		for _, n := range p.Nodes() {
			base = base || n < 2
			appended = appended || n >= 2
		}
		if base && appended {
			mixed++
		}
	}
	if zeroLen != g.LiveNodes() {
		t.Fatalf("%d zero-length paths, want one per node", zeroLen)
	}
	var want bytes.Buffer
	if err := writePathLinesReference(&want, g, set.Paths()); err != nil {
		t.Fatal(err)
	}
	for _, keep := range []bool{false, true} {
		enc, err := encodeResult(nil, g, set.Paths(), keep)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		n, err := enc.writeLines(&got, 0, enc.lines())
		if err != nil || n != int64(got.Len()) {
			t.Fatalf("keep=%v: writeLines = %d, %v; wrote %d bytes", keep, n, err, got.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("keep=%v: page diverges from the per-line writer:\n got  %q\n want %q", keep, got.Bytes(), want.Bytes())
		}
		if keep && cap(enc.buf) > len(enc.buf)+len(enc.buf)/8+8<<10 { // allocation size classes round up
			t.Fatalf("a kept encoding of %d bytes has capacity %d", len(enc.buf), cap(enc.buf))
		}
	}
	return mixed
}

// TestWriteLinesOneWrite: the whole fixture result, encoded once, pages
// in ranges of 1024 lines, each page one Write, and the pages concatenate
// to the per-line writer's bytes.
func TestWriteLinesOneWrite(t *testing.T) {
	g, set, _ := pageFixture(t)
	enc, err := encodeResult(nil, g, set.Paths(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.release()
	if enc.lines() != set.Len() {
		t.Fatalf("encoded %d lines for %d paths", enc.lines(), set.Len())
	}
	var got bytes.Buffer
	rec := &writeRecorder{w: &got}
	pages := 0
	for lo := 0; lo < enc.lines(); lo += 1024 {
		hi := min(lo+1024, enc.lines())
		n, err := enc.writeLines(rec, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if pages++; len(rec.sizes) != pages || int64(rec.sizes[pages-1]) != n {
			t.Fatalf("page %d took %d writes in all, want one per page", pages, len(rec.sizes))
		}
	}
	var want bytes.Buffer
	if err := writePathLinesReference(&want, g, set.Paths()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%d pages of %d bytes diverge from the per-line writer's %d", pages, got.Len(), want.Len())
	}
	if pages < 2 {
		t.Fatalf("fixture result fills %d page, want several", pages)
	}
}

// writeRecorder records the size of every Write.
type writeRecorder struct {
	w     io.Writer
	sizes []int
}

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.sizes = append(r.sizes, len(p))
	return r.w.Write(p)
}

// TestSeveredPage: with server.write armed at its Nth hit on a 1024-path
// page, the body is exactly the first N-1 lines of the unfaulted page —
// whole lines, no trailer — and what the per-line writer writes under the
// same schedule, and the next read returns the page after it. It holds
// on the cursor that evaluated, with the cache and with no_cache, and on
// a cursor over the cached result that evaluation left behind.
func TestSeveredPage(t *testing.T) {
	g, _, page := pageFixture(t)
	_, ts := newTestServer(t, Config{Graph: g, ChunkSize: 1024, Engine: engine.Options{Limits: pageLimits}})

	// open posts pageQuery as a miss (after emptying the cache), as
	// no_cache or as a hit, and returns the cursor's id.
	open := func(kind string) string {
		t.Helper()
		if kind == "miss" {
			postJSON(t, ts.URL+"/cache/invalidate", struct{}{}).Body.Close()
		}
		qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: pageQuery, NoCache: kind == "no_cache"}))
		if qr.Cached != (kind == "hit") {
			t.Fatalf("%s cursor: cached = %v", kind, qr.Cached)
		}
		return qr.ID
	}
	// next reads the cursor's next page, with server.write armed at its
	// nth hit when nth > 0.
	next := func(id string, nth int) []byte {
		t.Helper()
		if nth > 0 {
			defer fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: "server.write", Nth: nth}}})()
		}
		resp, err := http.Get(fmt.Sprintf("%s/query/%s/next", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	cleanID := open("miss")
	clean := next(cleanID, 0)
	secondPage := next(cleanID, 0)
	lines := strings.SplitAfter(string(clean), "\n")
	if len(lines) != 1024+2 || lines[1025] != "" || !strings.HasPrefix(lines[1024], `{"done":false,"returned":1024,`) {
		t.Fatalf("unfaulted page has %d lines, want 1024 path lines and a trailer", len(lines)-1)
	}
	for _, nth := range []int{1, 2, 500, 1024} {
		var ref bytes.Buffer
		restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: "server.write", Nth: nth}}})
		err := writePathLinesReference(&ref, g, page)
		restore()
		if err == nil {
			t.Fatalf("nth=%d: the reference writer was not severed", nth)
		}
		for _, kind := range []string{"miss", "no_cache", "hit"} {
			id := open(kind)
			got := next(id, nth)
			if want := strings.Join(lines[:nth-1], ""); string(got) != want {
				t.Errorf("%s nth=%d: body of %d bytes, want the first %d lines (%d bytes)", kind, nth, len(got), nth-1, len(want))
			}
			if !bytes.Equal(got, ref.Bytes()) {
				t.Errorf("%s nth=%d: body diverges from the per-line writer's", kind, nth)
			}
			if got := next(id, 0); !bytes.Equal(got, secondPage) {
				t.Errorf("%s nth=%d: the read after the severed page is not the second page", kind, nth)
			}
		}
	}
}

// TestSeveredPageNotCounted: a page a write fault cuts adds nothing to
// paths_delivered or pages_served, and the next read returns the page
// after it and adds exactly its lines — on the cursor that evaluated and
// on a cursor over the cached result.
func TestSeveredPageNotCounted(t *testing.T) {
	_, ts := newTestServer(t, Config{Graph: ldbc.Figure1(), Engine: engine.Options{Limits: core.Limits{MaxLen: 4}}})
	stats := func() statsResponse {
		t.Helper()
		return decodeBody[statsResponse](t, mustGet(t, ts.URL+"/stats"))
	}
	qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery, ChunkSize: 5}))
	all, _ := drainTraced(t, ts.URL, qr.ID)
	if len(all) < 10 {
		t.Fatalf("result has %d paths, want two pages of 5", len(all))
	}
	for _, cached := range []bool{false, true} {
		if !cached {
			postJSON(t, ts.URL+"/cache/invalidate", struct{}{}).Body.Close()
		}
		qr := decodeBody[queryResponse](t, postJSON(t, ts.URL+"/query", queryRequest{Query: obsQuery, ChunkSize: 5}))
		if qr.Cached != cached {
			t.Fatalf("cursor cached = %v, want %v", qr.Cached, cached)
		}
		next := fmt.Sprintf("%s/query/%s/next", ts.URL, qr.ID)
		before := stats()

		restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: "server.write", Nth: 3}}})
		resp, err := http.Get(next)
		if err != nil {
			restore()
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(body), "\n"); n != 2 || strings.Contains(string(body), `"done"`) {
			t.Fatalf("cached=%v: severed page = %q, want 2 path lines and no trailer", cached, body)
		}
		severed := stats()
		if severed.Server.Paths != before.Server.Paths || severed.Server.Pages != before.Server.Pages {
			t.Errorf("cached=%v: severed page moved paths_delivered %d -> %d, pages_served %d -> %d", cached,
				before.Server.Paths, severed.Server.Paths, before.Server.Pages, severed.Server.Pages)
		}

		resp, err = http.Get(next)
		if err != nil {
			t.Fatal(err)
		}
		paths, trailer := readPage(t, resp)
		if trailer.Returned != 5 || !reflect.DeepEqual(paths, all[5:10]) {
			t.Fatalf("cached=%v: clean page returned %d (%d lines), want the second page of 5", cached, trailer.Returned, len(paths))
		}
		after := stats()
		if after.Server.Paths != severed.Server.Paths+int64(trailer.Returned) || after.Server.Pages != severed.Server.Pages+1 {
			t.Errorf("cached=%v: clean page moved paths_delivered %d -> %d, pages_served %d -> %d; want +%d, +1", cached,
				severed.Server.Paths, after.Server.Paths, severed.Server.Pages, after.Server.Pages, trailer.Returned)
		}
	}
}

// BenchmarkWritePage writes one 1024-path page of a generated LDBC graph
// to io.Discard. "sealed" and "delta" encode the page first, over the
// built graph and over a Store's delta view whose every path visits a
// node or edge a batch appended: the sealed page copies every key from
// the key column graph.Build rendered, the delta page also renders its
// appended keys per line. "cached" writes the page from a result encoded
// beforehand, as a cache hit does. Untraced and disarmed none allocates:
// the encoding is pooled and keys are copied, not marshalled.
func BenchmarkWritePage(b *testing.B) {
	g, _, page := pageFixture(b)
	dg, dpage := deltaPageFixture(b)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		page []path.Path
	}{{"sealed", g, page}, {"delta", dg, dpage}} {
		b.Run(c.name, func(b *testing.B) {
			cur := &cursor{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc, err := encodeResult(nil, c.g, c.page, false)
				if err != nil {
					b.Fatal(err)
				}
				cur.enc = enc
				if err := writePage(io.Discard, cur, 0, enc.lines()); err != nil {
					b.Fatal(err)
				}
				enc.release()
			}
		})
	}
	b.Run("cached", func(b *testing.B) {
		enc, err := encodeResult(nil, g, page, true)
		if err != nil {
			b.Fatal(err)
		}
		cur := &cursor{enc: enc}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := writePage(io.Discard, cur, 0, cur.enc.lines()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// deltaPageFixture appends 32 persons to pageGraph through a Store, each
// knowing three base persons and known by three, evaluates pageQuery over
// the delta view and returns it and the first 1024 paths of the result
// that visit an appended node or edge.
func deltaPageFixture(tb testing.TB) (*graph.Graph, []path.Path) {
	tb.Helper()
	base := pageGraph()
	st := graph.NewStore(base, graph.StoreOptions{})
	tb.Cleanup(st.Close)
	var ops []graph.Op
	for i := 1; i <= 32; i++ {
		key := fmt.Sprintf("q%d", i)
		ops = append(ops, graph.Op{Kind: graph.OpAddNode, Key: key, Label: ldbc.LabelPerson})
		for j := 0; j < 3; j++ {
			p := fmt.Sprintf("p%d", 1+(7*i+31*j)%100)
			ops = append(ops,
				graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprintf("kq%d_out%d", i, j), Src: key, Dst: p, Label: ldbc.LabelKnows},
				graph.Op{Kind: graph.OpAddEdge, Key: fmt.Sprintf("kq%d_in%d", i, j), Src: p, Dst: key, Label: ldbc.LabelKnows})
		}
	}
	if _, err := st.Apply(graph.Batch{Ops: ops}); err != nil {
		tb.Fatal(err)
	}
	g := st.Graph()
	if st.DeltaSize() == 0 {
		tb.Fatal("the batch resealed the graph; want a delta view")
	}
	set, err := engine.New(g, engine.Options{Limits: pageLimits}).Run(gql.MustCompile(pageQuery))
	if err != nil {
		tb.Fatal(err)
	}
	appended := func(p path.Path) bool {
		for _, n := range p.Nodes() {
			if int(n) >= base.NumNodes() {
				return true
			}
		}
		for _, e := range p.Edges() {
			if int(e) >= base.NumEdges() {
				return true
			}
		}
		return false
	}
	var page []path.Path
	for _, p := range set.Paths() {
		if appended(p) {
			page = append(page, p)
			if len(page) == 1024 {
				return g, page
			}
		}
	}
	tb.Fatalf("delta fixture has %d paths through appended objects, want >= 1024", len(page))
	return nil, nil
}
