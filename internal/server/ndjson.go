package server

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"pathalgebra/internal/fault"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/path"
)

// The cursor pages stream as NDJSON (one JSON document per line,
// Content-Type application/x-ndjson): zero or more path lines followed by
// exactly one trailer line. Path lines carry a "nodes" field; the trailer
// carries "done", so a line-oriented client can tell them apart without
// lookahead, and a page is self-delimiting even over chunked transfer.
//
// A path line is the path rendered with the graph's external keys — the
// alternating (n1, e1, ..., ek, nk+1) sequence split into its node and
// edge tracks:
//
//	{"nodes":["n1","n2"],"edges":["e1"],"len":1}
//
// Path lines are appended straight from the path's IDs into a pooled
// page buffer, byte-identical to encoding/json's rendering of
// struct{Nodes, Edges []string; Len int}. The keys are not rendered
// here: the graph stores each key once, between its quotes, and a line
// copies those bytes for every key encoding/json writes unchanged
// (graph.AppendNodeKeyJSON and AppendEdgeKeyJSON); only keys that need
// escaping, and the keys a delta view appended, are rendered per line.

// pageFlushBytes is the page buffer's high-water mark: the buffer goes
// to the writer whenever it passes this, and once at the end of the
// page, so a page of any size holds at most one flush plus one line.
const pageFlushBytes = 32 << 10

// pageBufs pools page buffers across requests, each with room for the
// line that crosses the flush mark.
var pageBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, pageFlushBytes+pageFlushBytes/4)
	return &b
}}

// pageTrailer terminates every cursor page. Done reports whether the
// cursor is exhausted (and therefore removed server-side); Returned is
// the number of path lines on this page; Delivered and Total are the
// cursor's cumulative progress. Trace is the query's span tree, present
// only on the final page of a traced query.
type pageTrailer struct {
	Done      bool            `json:"done"`
	Returned  int             `json:"returned"`
	Delivered int64           `json:"delivered"`
	Total     int             `json:"total"`
	Trace     []*obs.SpanJSON `json:"trace,omitempty"`
}

// writePathLines writes one NDJSON line per path, rendered with g's keys,
// and returns the bytes written. Each line is one hit of the
// "server.write" fault site, which stands in for a client connection
// dying mid-page: when it fires, the lines already buffered are written
// and the error returned, so a severed page is a prefix of whole lines.
func writePathLines(w io.Writer, g *graph.Graph, paths []path.Path) (int64, error) {
	bp := pageBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	var written int64
	var err error
	for _, p := range paths {
		if err = fault.Hit("server.write"); err != nil {
			break
		}
		buf = appendPathLine(buf, g, p)
		if len(buf) >= pageFlushBytes {
			n, werr := w.Write(buf)
			written += int64(n)
			buf = buf[:0]
			if werr != nil {
				err = werr
				break
			}
		}
	}
	if len(buf) > 0 {
		n, werr := w.Write(buf)
		written += int64(n)
		if err == nil {
			err = werr
		}
	}
	if cap(buf) <= 2*pageFlushBytes { // a page with one huge line does not pin its buffer
		*bp = buf[:0]
		pageBufs.Put(bp)
	}
	return written, err
}

// appendPathLine appends p's NDJSON line, newline included.
//
//pathalgebra:hotpath
func appendPathLine(buf []byte, g *graph.Graph, p path.Path) []byte {
	buf = append(buf, `{"nodes":[`...)
	for i, n := range p.Nodes() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = g.AppendNodeKeyJSON(buf, n)
	}
	buf = append(buf, `],"edges":[`...)
	for i, e := range p.Edges() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = g.AppendEdgeKeyJSON(buf, e)
	}
	buf = append(buf, `],"len":`...)
	buf = strconv.AppendInt(buf, int64(p.Len()), 10)
	return append(buf, "}\n"...)
}

// writeNDJSON encodes one value as a single NDJSON line — the page
// trailer. It is one more hit of the "server.write" fault site.
func writeNDJSON(w io.Writer, v any) error {
	if err := fault.Hit("server.write"); err != nil {
		return err
	}
	enc := json.NewEncoder(w) // Encode appends the newline
	return enc.Encode(v)
}
