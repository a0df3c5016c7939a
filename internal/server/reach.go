package server

import (
	"context"
	"fmt"
	"net/http"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
)

// POST /reach answers a path-free question about a query's result set —
// endpoint pairs, pair/path counts, existence, shortest lengths —
// without streaming any path. Eligible plans run on the product BFS
// (automaton.Reach: no index, no path materialized); everything else
// enumerates and erases. "kernel" reports which route ran.
//
//	POST /reach {"query": "...", "mode": "pairs"} →
//	  {"mode":"pairs","kernel":true,"exists":true,"count":2,
//	   "pairs":[{"src":"n1","dst":"n2"},...]}

// reachRequest is the POST /reach body: the query surface of
// queryRequest plus the answer mode.
type reachRequest struct {
	Query string `json:"query"`
	// Mode is one of "exists", "pairs", "count-pairs", "count-paths",
	// "shortest-lengths". Required.
	Mode      string `json:"mode"`
	MaxLen    int    `json:"max_len"`
	MaxPaths  int    `json:"max_paths"`
	MaxWork   int    `json:"max_work"`
	TimeoutMS int    `json:"timeout_ms"`
	NoCache   bool   `json:"no_cache"`
	// Trace returns the request's span tree in the response ("trace"
	// field). ?trace=1 on the request URL does the same.
	Trace bool `json:"trace"`
}

// reachPairJSON is one endpoint pair, node keys resolved against the
// evaluation view; Len is present for mode "shortest-lengths".
type reachPairJSON struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	Len *int32 `json:"len,omitempty"`
}

// reachResponse is the POST /reach response. Trace is present only when
// the request asked for it; cached entries store the response without it
// (a hit's trace describes the probe, not the original evaluation).
type reachResponse struct {
	Mode   string          `json:"mode"`
	Kernel bool            `json:"kernel"`
	Cached bool            `json:"cached"`
	Exists bool            `json:"exists"`
	Count  int             `json:"count"`
	Pairs  []reachPairJSON `json:"pairs,omitempty"`
	Trace  []*obs.SpanJSON `json:"trace,omitempty"`
}

// parseReachMode maps the wire mode names onto opt.ReachMode.
func parseReachMode(s string) (opt.ReachMode, error) {
	for _, m := range []opt.ReachMode{
		opt.ReachExists, opt.ReachPairs, opt.ReachCountPairs,
		opt.ReachCountPaths, opt.ReachShortestLengths,
	} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown reach mode %q (want exists, pairs, count-pairs, count-paths or shortest-lengths)", s)
}

// reachKey is the reach-cache key. The "reach:<mode>:" prefix keeps the
// keyspace disjoint from resultKey's even in principle — path-free
// answers and enumerated path sets must never alias (the caches are separate
// structures on top of this).
func reachKey(mode opt.ReachMode, plan core.PathExpr, lim core.Limits) string {
	return fmt.Sprintf("reach:%s:%s", mode, resultKey(plan, lim))
}

// handleReach evaluates a path-free query. It is synchronous like
// /explain (no cursor — the answer is small), runs under the same
// admission control, and caches rendered answers in the reach LRU with
// label-footprint invalidation.
func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	var req reachRequest
	if err := decodeJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing \"query\" field")
		return
	}
	mode, err := parseReachMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	wantTrace := req.Trace || r.URL.Query().Get("trace") == "1"
	var tr *obs.Trace
	var root *obs.Span
	if wantTrace {
		tr = obs.NewTrace()
		root = tr.Start("reach")
		// Tree() below closes the root at render; the deferred End only
		// matters if the handler bails before rendering.
		defer root.End()
	}
	logical, err := traceCompile(root, req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	lim := s.limitsFor(&queryRequest{MaxLen: req.MaxLen, MaxPaths: req.MaxPaths, MaxWork: req.MaxWork})
	eng := s.engine.WithLimits(lim)
	plan := tracePlan(root, eng, logical)
	key := reachKey(mode, plan, lim)

	if !req.NoCache {
		if resp, ok := probeCache(root, s.reach, key); ok {
			resp.Cached = true
			if wantTrace {
				resp.Trace = tr.Tree()
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	if n := s.inflight.Add(1); n > int64(s.cfg.maxInFlight()) {
		s.inflight.Add(-1)
		s.metrics.rejected.Inc()
		writeError(w, http.StatusTooManyRequests, "over_capacity", "too many in-flight queries (max %d)", s.cfg.maxInFlight())
		return
	}
	defer s.inflight.Add(-1)
	ctx := s.baseCtx
	if t := s.deadlineFor(&queryRequest{TimeoutMS: req.TimeoutMS}); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	res, err := eng.ReachCtx(obs.WithSpan(ctx, root), logical, mode)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	resp := renderReach(res)
	// Cache the response before attaching the trace: a later hit gets the
	// answer, not this request's spans.
	if !req.NoCache {
		s.reach.put(key, resp, res.Epoch, res.Footprint)
	}
	if wantTrace {
		resp.Trace = tr.Tree()
	}
	writeJSON(w, http.StatusOK, resp)
}

// renderReach resolves the result's node IDs to external keys against
// the evaluation view it was computed on.
func renderReach(res *engine.ReachResult) reachResponse {
	resp := reachResponse{
		Mode:   res.Mode.String(),
		Kernel: res.Kernel,
		Exists: res.Exists,
		Count:  res.Count,
	}
	if len(res.Pairs) > 0 {
		resp.Pairs = make([]reachPairJSON, len(res.Pairs))
		for i, p := range res.Pairs {
			resp.Pairs[i] = reachPairJSON{
				Src: res.Graph.NodeKey(p.Src),
				Dst: res.Graph.NodeKey(p.Dst),
			}
			if res.Lengths != nil {
				l := res.Lengths[i]
				resp.Pairs[i].Len = &l
			}
		}
	}
	return resp
}
