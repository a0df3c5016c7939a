package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
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
// A result is encoded once, when its evaluation completes: every path's
// line is appended straight from the path's IDs into one buffer, beside
// the offset where each line ends, byte-identical to encoding/json's
// rendering of struct{Nodes, Edges []string; Len int}. The keys are not
// rendered here: the graph stores each key once, between its quotes, and
// a line copies those bytes for every key encoding/json writes unchanged
// (graph.AppendNodeKeyJSON and AppendEdgeKeyJSON); only keys that need
// escaping, and the keys a delta view appended, are rendered per line.
// Every page is one Write of a byte range of that encoding, which the
// result cache keeps in place of the path set: a hit renders nothing. A
// no_cache result, which no second reader shares, is encoded a page at a
// time into a pooled buffer instead.

// encoded is one result's NDJSON path lines: buf holds them back to
// back, and line i is buf[offs[i]:offs[i+1]].
type encoded struct {
	buf  []byte
	offs []uint32
}

// encodedPool recycles the page encodings of no_cache results.
var encodedPool = sync.Pool{New: func() any { return new(encoded) }}

// encodeResult appends the NDJSON line of every path, rendered with g's
// keys, under an "encode" span of the query's trace whose attributes are
// the paths and bytes encoded. g must be the graph view the paths' IDs
// were minted in. A result the cache keeps (keep) is held for good, so a
// first pass sizes it and it is encoded once into slices of exactly its
// size: growing a large one and copying it cost more than that pass. A
// page of a no_cache result is encoded into a buffer from encodedPool,
// which the caller releases.
func encodeResult(root *obs.Span, g *graph.Graph, paths []path.Path, keep bool) (*encoded, error) {
	sp := root.Start("encode")
	defer sp.End()
	var e *encoded
	if keep {
		e = new(encoded)
		size := 0
		for _, p := range paths {
			e.buf = appendPathLine(e.buf[:0], g, p)
			size += len(e.buf)
		}
		e.buf = make([]byte, 0, size)
	} else {
		e = encodedPool.Get().(*encoded)
	}
	e.buf, e.offs = e.buf[:0], append(slices.Grow(e.offs[:0], len(paths)+1), 0)
	for _, p := range paths {
		e.buf = appendPathLine(e.buf, g, p)
		e.offs = append(e.offs, uint32(len(e.buf)))
	}
	if uint64(len(e.buf)) > math.MaxUint32 { // the offsets wrapped
		return nil, errors.New("server: result encodes to more than 4 GiB")
	}
	sp.SetInt("paths", int64(len(paths)))
	sp.SetInt("bytes", int64(len(e.buf)))
	return e, nil
}

func (e *encoded) release() { encodedPool.Put(e) }

// lines is the number of path lines encoded.
func (e *encoded) lines() int { return len(e.offs) - 1 }

// writeLines writes lines [lo, hi) of e in one Write and returns the
// bytes written. Each line is one hit of the "server.write" fault site,
// which stands in for a client connection dying mid-page: when it fires,
// the lines before it are written and the error returned, so a severed
// page is a prefix of whole lines.
func (e *encoded) writeLines(w io.Writer, lo, hi int) (int64, error) {
	var err error
	cut := lo
	for ; cut < hi; cut++ {
		if err = fault.Hit("server.write"); err != nil {
			break
		}
	}
	n, werr := w.Write(e.buf[e.offs[lo]:e.offs[cut]])
	if err == nil {
		err = werr
	}
	return int64(n), err
}

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
