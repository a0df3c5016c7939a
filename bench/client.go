package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// client is one closed-loop client: one keep-alive connection, one
// request in flight.
type client struct {
	hc   *http.Client
	base string
	br   *bufio.Reader
	buf  []byte
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base: base,
		// Path lines are ~100 bytes; the buffer only has to hold the
		// longest line, which is a traced query's final trailer.
		br: bufio.NewReaderSize(nil, 1<<20),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRejected is a 429: admission control refused the request.
var errRejected = errors.New("bench: request rejected (429)")

// digest identifies a multiset of lines: their number and the wrapping
// sum of their FNV-64a hashes. Being order-independent it equals the
// digest of the sorted lines, without the sort.
type digest struct {
	N   int
	Sum uint64
}

func (d *digest) add(line []byte) {
	h := uint64(14695981039346656037)
	for _, b := range line {
		h = (h ^ uint64(b)) * 1099511628211
	}
	d.Sum += h
	d.N++
}

type queryResult struct {
	digest
	Requests  int // POST + every /next
	Cached    bool
	FirstPage time.Duration // POST sent → first page fully read
	Total     time.Duration // POST sent → trailer with "done":true read
}

type queryBody struct {
	Query   string `json:"query"`
	NoCache bool   `json:"no_cache,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
}

func (c *client) post(path, contentType string, body []byte, want int, into any) error {
	resp, err := c.hc.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return errRejected
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// query runs one path query to its last page, hashing every path line and
// checking every trailer's arithmetic: returned is the page's line count,
// delivered the running total, total constant, and done exactly when
// delivered reaches total.
func (c *client) query(text string, noCache, trace bool) (queryResult, error) {
	var res queryResult
	body, _ := json.Marshal(queryBody{Query: text, NoCache: noCache, Trace: trace})
	t0 := time.Now()
	var qr struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
		Total  *int   `json:"total"`
	}
	if err := c.post("/query", "application/json", body, http.StatusCreated, &qr); err != nil {
		return res, err
	}
	res.Requests, res.Cached = 1, qr.Cached
	next := c.base + "/query/" + qr.ID + "/next"
	for {
		tr, n, err := c.page(next, &res.digest)
		if err != nil {
			return res, err
		}
		res.Requests++
		if res.Requests == 2 {
			res.FirstPage = time.Since(t0)
		}
		switch {
		case tr.Returned != n:
			return res, fmt.Errorf("page of %q: trailer returned=%d, %d path lines", text, tr.Returned, n)
		case tr.Delivered != int64(res.N):
			return res, fmt.Errorf("page of %q: trailer delivered=%d, %d lines so far", text, tr.Delivered, res.N)
		case qr.Total != nil && tr.Total != *qr.Total:
			return res, fmt.Errorf("page of %q: trailer total=%d, POST said %d", text, tr.Total, *qr.Total)
		case tr.Done != (tr.Delivered == int64(tr.Total)):
			return res, fmt.Errorf("page of %q: done=%v at %d/%d", text, tr.Done, tr.Delivered, tr.Total)
		}
		if tr.Done {
			res.Total = time.Since(t0)
			return res, nil
		}
	}
}

type trailer struct {
	Done      bool  `json:"done"`
	Returned  int   `json:"returned"`
	Delivered int64 `json:"delivered"`
	Total     int   `json:"total"`
}

var trailerPrefix = []byte(`{"done":`)

// page reads one NDJSON page: path lines into d, then the trailer.
func (c *client) page(url string, d *digest) (trailer, int, error) {
	var tr trailer
	resp, err := c.hc.Get(url)
	if err != nil {
		return tr, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return tr, 0, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	c.br.Reset(resp.Body)
	lines, sawTrailer := 0, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return tr, lines, fmt.Errorf("GET %s: %w", url, err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		if bytes.HasPrefix(line, trailerPrefix) {
			if err := json.Unmarshal(line, &tr); err != nil {
				return tr, lines, fmt.Errorf("GET %s: trailer: %w", url, err)
			}
			sawTrailer = true
			continue
		}
		if sawTrailer {
			return tr, lines, fmt.Errorf("GET %s: path line after the trailer", url)
		}
		d.add(line)
		lines++
	}
	if !sawTrailer {
		return tr, lines, fmt.Errorf("GET %s: page without trailer", url)
	}
	return tr, lines, nil
}

// reachAnswer is the POST /reach response, and what the oracle renders an
// engine.ReachResult into for comparison.
type reachAnswer struct {
	Kernel bool        `json:"kernel"`
	Cached bool        `json:"cached"`
	Exists bool        `json:"exists"`
	Count  int         `json:"count"`
	Pairs  []reachPair `json:"pairs"`
}

type reachPair struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	Len *int32 `json:"len"`
}

// digestOf hashes the answer proper — exists, count and every pair — and
// not the route that produced it.
func (a *reachAnswer) digestOf(buf []byte) (digest, []byte) {
	var d digest
	buf = strconv.AppendBool(buf[:0], a.Exists)
	buf = strconv.AppendInt(append(buf, ' '), int64(a.Count), 10)
	d.add(buf)
	for _, p := range a.Pairs {
		buf = append(append(append(buf[:0], p.Src...), '>'), p.Dst...)
		if p.Len != nil {
			buf = strconv.AppendInt(append(buf, ':'), int64(*p.Len), 10)
		}
		d.add(buf)
	}
	return d, buf
}

func (c *client) reach(op reachOp, noCache bool) (reachAnswer, digest, error) {
	body, _ := json.Marshal(map[string]any{"query": op.Text, "mode": op.Mode, "no_cache": noCache})
	var a reachAnswer
	if err := c.post("/reach", "application/json", body, http.StatusOK, &a); err != nil {
		return a, digest{}, err
	}
	d, buf := a.digestOf(c.buf)
	c.buf = buf
	return a, d, nil
}

// ingestAck is the POST /ingest response.
type ingestAck struct {
	Epoch uint64 `json:"epoch"`
	Ops   int    `json:"ops"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

func (c *client) ingest(ndjson []byte) (ingestAck, error) {
	var ack ingestAck
	err := c.post("/ingest", "application/x-ndjson", ndjson, http.StatusOK, &ack)
	return ack, err
}

// serviceStats is the part of GET /stats the harness reads as deltas.
type serviceStats struct {
	Engine struct {
		ReachKernelRuns int64
		ReachFallbacks  int64
		PlanCacheHits   int64
		PlanCacheMisses int64
	} `json:"engine"`
	Store struct {
		Compactions uint64 `json:"compactions"`
	} `json:"store"`
}

func (c *client) stats() (serviceStats, error) {
	var s serviceStats
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}
