// Package server is the query service layer over the path-algebra engine:
// a concurrent scheduler with admission control, session-scoped result
// cursors, NDJSON streaming, and a result LRU — the machinery that turns
// the blocking Engine.Run call into a service that can start, page,
// observe and abandon queries over HTTP.
//
// Lifecycle of a query:
//
//	POST /query            {"query": "...", ...}      → {"id": "q1", ...}
//	GET  /query/{id}/next  pages the result as NDJSON (path lines + trailer)
//	DELETE /query/{id}     cancels the evaluation and discards the cursor
//
// plus POST /reach (path-free answers: pairs, counts, existence, shortest
// lengths), POST /ingest (apply an NDJSON mutation batch to the live
// store), GET /stats (engine + server counters), GET /metrics (the same
// counters in the Prometheus text format), POST /explain (plan with
// estimated vs. actual cardinalities), POST /cache/invalidate (drop the
// result and reach LRUs) and GET /healthz.
//
// One engine serves every request; a request's max_len, max_paths and
// max_work override the configured limits for that request only.
//
// Failure modes are typed end to end: budget exhaustion surfaces as
// core.ErrBudgetExceeded (HTTP 422), a per-query deadline as
// context.DeadlineExceeded (504), client cancellation as context.Canceled
// (410), and server drain as ErrDraining (503) — the error-contract
// mapping the evaluators' budget cancellation makes possible.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/fault"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
)

// ErrDraining is the cancellation cause recorded by Close: queries cut
// short by server shutdown fail with it (HTTP 503) rather than a generic
// cancellation, so clients can tell "server going away, retry elsewhere"
// from "my query was cancelled".
var ErrDraining = errors.New("server: draining, query aborted")

// Config parameterizes a Server. The zero value of every field selects a
// sensible default; Graph is the only required field.
type Config struct {
	// Graph is the initial graph served. Required unless Store is set.
	// The server always serves through a graph.Store — when only Graph is
	// given, it wraps it in a store of its own (epoch 0) so POST /ingest
	// works out of the box.
	Graph *graph.Graph
	// Store, when set, is the live store to serve (Graph is ignored).
	// The caller keeps ownership: Server.Close will not close it.
	Store *graph.Store
	// CompactThreshold configures the server-owned store created when
	// Store is nil: delta records before background compaction
	// (graph.StoreOptions.CompactThreshold semantics).
	CompactThreshold int
	// Engine is the base engine configuration. Engine.Limits acts as the
	// per-query default; requests may override MaxLen/MaxPaths/MaxWork.
	Engine engine.Options
	// MaxInFlight bounds concurrently evaluating queries (admission
	// control; excess POST /query returns 429). <= 0 selects
	// 2×GOMAXPROCS. Cache hits bypass admission — they evaluate nothing.
	MaxInFlight int
	// MaxCursors bounds live cursors (429 beyond). <= 0 selects 1024.
	MaxCursors int
	// ChunkSize is the default paths-per-page; requests may override up
	// to MaxChunkSize. <= 0 selects 256.
	ChunkSize int
	// MaxChunkSize caps the per-request chunk size. <= 0 selects 65536.
	MaxChunkSize int
	// QueryTimeout is the per-query evaluation deadline. 0 selects 60s;
	// < 0 disables the deadline. Requests may shorten it (timeout_ms),
	// never extend it.
	QueryTimeout time.Duration
	// CursorTTL evicts (and cancels) cursors idle longer than this. 0
	// selects 5m; < 0 disables the sweeper.
	CursorTTL time.Duration
	// CacheSize bounds the result LRU in entries. 0 selects 128; < 0
	// disables result caching.
	CacheSize int
	// SlowQuery, when > 0, traces every evaluated query and logs any
	// whose evaluation takes at least this long: the query text, limits,
	// plan and a one-line span summary. 0 disables the slow-query log.
	SlowQuery time.Duration
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 2 * runtime.GOMAXPROCS(0)
	}
	return c.MaxInFlight
}

func (c Config) maxCursors() int {
	if c.MaxCursors <= 0 {
		return 1024
	}
	return c.MaxCursors
}

func (c Config) chunkSize() int {
	if c.ChunkSize <= 0 {
		return 256
	}
	return c.ChunkSize
}

func (c Config) maxChunkSize() int {
	if c.MaxChunkSize <= 0 {
		return 65536
	}
	return c.MaxChunkSize
}

func (c Config) queryTimeout() time.Duration {
	switch {
	case c.QueryTimeout == 0:
		return 60 * time.Second
	case c.QueryTimeout < 0:
		return 0
	default:
		return c.QueryTimeout
	}
}

func (c Config) cursorTTL() time.Duration {
	switch {
	case c.CursorTTL == 0:
		return 5 * time.Minute
	case c.CursorTTL < 0:
		return 0
	default:
		return c.CursorTTL
	}
}

func (c Config) cacheSize() int {
	switch {
	case c.CacheSize == 0:
		return 128
	case c.CacheSize < 0:
		return 0
	default:
		return c.CacheSize
	}
}

// Server is the query service. It implements http.Handler; wire it into
// an http.Server (cmd/pathalgebrad does) or call its handlers in-process
// through httptest. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	// store is the live graph: every query evaluates against the epoch
	// current when it starts (cursors render against that view), and
	// /ingest applies batches to it.
	store *graph.Store
	// ownStore records whether the server created the store itself (and
	// must close its compactor on Close).
	ownStore bool
	// engine serves every request, each under its own limits
	// (engine.WithLimits): one plan cache, one set of counters.
	engine *engine.Engine

	cache    *footprintCache[*encoded]
	reach    *footprintCache[reachResponse]
	cursors  *cursorTable
	inflight atomic.Int64
	metrics  *serverMetrics
	nextID   atomic.Int64

	// baseCtx parents every query context so Close aborts all running
	// evaluations with ErrDraining as the cause.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	sweepStop  chan struct{}
	closeOnce  sync.Once
	mux        *http.ServeMux
}

// New returns a Server over cfg.Store (or a server-owned store wrapping
// cfg.Graph).
func New(cfg Config) (*Server, error) {
	store := cfg.Store
	own := false
	if store == nil {
		if cfg.Graph == nil {
			return nil, fmt.Errorf("server: Config.Graph or Config.Store is required")
		}
		store = graph.NewStore(cfg.Graph, graph.StoreOptions{CompactThreshold: cfg.CompactThreshold})
		own = true
	}
	baseCtx, baseCancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      store,
		ownStore:   own,
		engine:     engine.NewWithStore(store, cfg.Engine),
		cursors:    newCursorTable(cfg.maxCursors()),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		sweepStop:  make(chan struct{}),
		mux:        http.NewServeMux(),
	}
	if n := cfg.cacheSize(); n > 0 {
		s.cache = newFootprintCache[*encoded](store, n)
		s.reach = newFootprintCache[reachResponse](store, n)
	}
	s.metrics = newServerMetrics()
	s.registerCollectors()
	s.handle("POST /query", "query", s.handleQuery)
	s.handle("POST /reach", "reach", s.handleReach)
	s.handle("GET /query/{id}/next", "next", s.handleNext)
	s.handle("DELETE /query/{id}", "cancel", s.handleCancel)
	s.handle("POST /ingest", "ingest", s.handleIngest)
	s.handle("GET /stats", "stats", s.handleStats)
	s.handle("POST /explain", "explain", s.handleExplain)
	s.handle("POST /cache/invalidate", "invalidate", s.handleInvalidate)
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	if ttl := cfg.cursorTTL(); ttl > 0 {
		go s.sweepLoop(ttl)
	}
	return s, nil
}

// ServeHTTP dispatches to the service endpoints. A panic escaping a
// handler is recovered into an HTTP 500 with kind "internal" (stack to
// the daemon log, never the client) — one poisoned request cannot take
// the connection's server goroutine down with uncounted state behind it.
// http.ErrAbortHandler keeps its net/http meaning and re-panics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		err := core.Recovered(rec)
		s.notePanic(err)
		// Best effort: if the handler already wrote headers this is a
		// no-op beyond a log line, and the truncated body tells the
		// client the response is dead.
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}()
	// Chaos seam: error mode fails the request before dispatch, panic
	// mode exercises the recovery middleware above.
	if err := fault.Hit("server.handler"); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// notePanic counts a recovered panic and logs it with its stack — the
// one place panic stacks become visible, since clients only ever see the
// typed "internal" error.
func (s *Server) notePanic(err error) {
	s.metrics.panics.Inc()
	var pe *core.PanicError
	if errors.As(err, &pe) {
		log.Printf("server: recovered panic: %v\n%s", pe.Val, pe.Stack)
	} else {
		log.Printf("server: recovered panic: %v", err)
	}
}

// recovered is the deferred recovery hook for server-owned background
// goroutines (completion watchers, cursor teardown): the goroutine ends,
// the panic is counted and logged, the process lives on.
func (s *Server) recovered(r any) {
	if r == nil {
		return
	}
	s.notePanic(core.Recovered(r))
}

// Close aborts every running evaluation (cause ErrDraining), cancels and
// drops all cursors, and stops the sweeper. Safe to call more than once.
// Callers draining an http.Server should Shutdown it first (stop
// accepting, let quick requests finish), then Close the query service to
// cut the long-running evaluations.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.baseCancel(ErrDraining)
		close(s.sweepStop)
		for _, c := range s.cursors.drainAll() {
			c.cancel()
			<-c.ready
			s.metrics.cancelled.Inc()
		}
		if s.ownStore {
			s.store.Close()
		}
	})
}

// sweepLoop evicts idle cursors every ttl/4.
func (s *Server) sweepLoop(ttl time.Duration) {
	// A sweeper panic must not kill the daemon; TTL eviction stops (leak
	// bounded by MaxCursors) and the panic is counted and logged.
	defer func() { s.recovered(recover()) }()
	tick := time.NewTicker(ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case now := <-tick.C:
			for _, c := range s.cursors.sweepIdle(now, ttl) {
				c.cancel()
				<-c.ready
				s.metrics.cancelled.Inc()
				s.metrics.cursorsExpired.Inc()
			}
		}
	}
}

// queryRequest is the POST /query (and POST /explain) body.
type queryRequest struct {
	// Query is the GQL path query text. Required.
	Query string `json:"query"`
	// ChunkSize overrides the server's default page size, capped at
	// Config.MaxChunkSize.
	ChunkSize int `json:"chunk_size"`
	// MaxLen / MaxPaths / MaxWork override the server's default
	// per-query limits (core.Limits semantics; 0 keeps the default).
	MaxLen   int `json:"max_len"`
	MaxPaths int `json:"max_paths"`
	MaxWork  int `json:"max_work"`
	// TimeoutMS shortens (never extends) the per-query deadline.
	TimeoutMS int `json:"timeout_ms"`
	// NoCache bypasses the result LRU for this query (both lookup and
	// admission of the result).
	NoCache bool `json:"no_cache"`
	// Trace enables per-query tracing: the span tree rides back on the
	// final page's trailer. ?trace=1 on the request URL does the same.
	Trace bool `json:"trace"`
}

// queryResponse is the POST /query response.
type queryResponse struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
	// Total is the result size, known immediately on a cache hit.
	Total *int `json:"total,omitempty"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	// Kind is the machine-readable failure class: bad_request, not_found,
	// over_capacity, budget_exceeded, deadline_exceeded, cancelled,
	// draining, internal.
	Kind string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// writeEvalError maps an evaluation error to its HTTP status — the
// payoff of the typed error contract (errors.Is, never string matching).
func writeEvalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", "%v", err)
	case errors.Is(err, core.ErrBudgetExceeded):
		writeError(w, http.StatusUnprocessableEntity, "budget_exceeded", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", "%v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusGone, "cancelled", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

// decodeJSONBody parses a bounded, strict JSON request body.
func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// decodeRequest parses the JSON body of POST /query and /explain.
func decodeRequest(r *http.Request) (*queryRequest, error) {
	var req queryRequest
	if err := decodeJSONBody(r, &req); err != nil {
		return nil, err
	}
	if req.Query == "" {
		return nil, fmt.Errorf("missing \"query\" field")
	}
	return &req, nil
}

// limitsFor merges request overrides into the server's default limits.
func (s *Server) limitsFor(req *queryRequest) core.Limits {
	lim := s.cfg.Engine.Limits
	if req.MaxLen > 0 {
		lim.MaxLen = req.MaxLen
	}
	if req.MaxPaths > 0 {
		lim.MaxPaths = req.MaxPaths
	}
	if req.MaxWork > 0 {
		lim.MaxWork = req.MaxWork
	}
	return lim
}

// chunkFor resolves the page size of a cursor.
func (s *Server) chunkFor(req *queryRequest) int {
	chunk := s.cfg.chunkSize()
	if req.ChunkSize > 0 {
		chunk = req.ChunkSize
	}
	return min(chunk, s.cfg.maxChunkSize())
}

// compile parses and compiles the query text into a logical plan.
func compile(query string) (core.PathExpr, error) {
	q, err := gql.Parse(query)
	if err != nil {
		return nil, err
	}
	return gql.Compile(q)
}

// resultKey is the result-LRU key: the canonical rendering of the
// physical plan the engine chose, plus the limits that bound its
// evaluation. Everything else (the planner on/off) does not
// change results, by the repo's determinism invariants.
func resultKey(plan core.PathExpr, lim core.Limits) string {
	return fmt.Sprintf("%s|maxlen=%d|maxpaths=%d|maxwork=%d", plan, lim.MaxLen, lim.MaxPaths, lim.MaxWork)
}

// handleQuery admits a query: cache hit → cursor over the cached
// encoding; miss → admission control, then a cancellable evaluation whose
// result is encoded once when it completes.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	// A trace is built when the client asks for one (returned on the
	// final page) or when the slow-query log is armed (kept server-side
	// for the log line); untraced queries thread nil spans at zero cost.
	wantTrace := req.Trace || r.URL.Query().Get("trace") == "1"
	var tr *obs.Trace
	var root *obs.Span
	if wantTrace || s.cfg.SlowQuery > 0 {
		tr = obs.NewTrace()
		root = tr.Start("query")
	}
	logical, err := traceCompile(root, req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	lim := s.limitsFor(req)
	eng := s.engine.WithLimits(lim)
	plan := tracePlan(root, eng, logical)
	key := resultKey(plan, lim)

	id := fmt.Sprintf("q%d", s.nextID.Add(1))
	cur := &cursor{
		id:        id,
		chunk:     s.chunkFor(req),
		trace:     tr,
		root:      root,
		wantTrace: wantTrace,
	}
	cur.touch(time.Now())

	if !req.NoCache {
		if enc, ok := probeCache(root, s.cache, key); ok {
			// Rendered with the view of the epoch that evaluated it: no IDs.
			cur.cancel, cur.ready, cur.enc, cur.total = func() {}, make(chan struct{}), enc, enc.lines()
			close(cur.ready)
			if !s.cursors.add(cur) {
				s.metrics.rejected.Inc()
				writeError(w, http.StatusTooManyRequests, "over_capacity", "cursor table full (%d live cursors)", s.cursors.len())
				return
			}
			s.metrics.cursorsOpened.Inc()
			writeJSON(w, http.StatusCreated, queryResponse{ID: id, Cached: true, Total: &cur.total})
			return
		}
	}

	// Cheap pre-launch capacity check so a full cursor table rejects
	// before any evaluation starts; the registration below re-checks
	// under the table lock (the authoritative cap) for the racy window.
	if s.cursors.len() >= s.cfg.maxCursors() {
		s.metrics.rejected.Inc()
		writeError(w, http.StatusTooManyRequests, "over_capacity", "cursor table full (%d live cursors)", s.cursors.len())
		return
	}

	// Admission control: bound concurrently evaluating queries.
	if n := s.inflight.Add(1); n > int64(s.cfg.maxInFlight()) {
		s.inflight.Add(-1)
		s.metrics.rejected.Inc()
		writeError(w, http.StatusTooManyRequests, "over_capacity", "too many in-flight queries (max %d)", s.cfg.maxInFlight())
		return
	}

	var qctx context.Context
	var qcancel context.CancelFunc
	if t := s.deadlineFor(req); t > 0 {
		qctx, qcancel = context.WithTimeout(s.baseCtx, t)
	} else {
		qctx, qcancel = context.WithCancel(s.baseCtx)
	}
	cur.cancel = qcancel
	cur.ready = make(chan struct{})
	evalStart := time.Now()
	// The root span rides the query context into RunStream: the engine's
	// plan/eval spans and the automaton's search/merge spans parent onto
	// it. WithSpan on a nil span returns qctx unchanged.
	stream := eng.RunStream(obs.WithSpan(qctx, root), logical, engine.StreamOptions{})
	s.metrics.started.Inc()

	// Completion watcher: log slow queries, encode a successful result
	// with the graph view of the epoch it evaluated (then drop the stream
	// and its set), admit the encoding into the result cache tagged with
	// that epoch and the plan's label footprint, and release the slot. A
	// no_cache result is kept as paths and encoded page by page instead.
	go func() {
		defer close(cur.ready)
		defer s.inflight.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				cur.err = core.Recovered(r)
				s.notePanic(cur.err)
			}
		}()
		<-stream.Done()
		if cur.discarded.Load() {
			return // registration rejected; counted as rejected, not failed
		}
		if thr := s.cfg.SlowQuery; thr > 0 {
			if el := time.Since(evalStart); el >= thr {
				// Log, then count: whoever sees the counter move can rely
				// on the line being written.
				log.Printf("server: slow query %s (%v >= %v): query=%q limits={maxlen:%d maxpaths:%d maxwork:%d} plan=%s trace: %s",
					id, el.Round(time.Microsecond), thr, req.Query,
					lim.MaxLen, lim.MaxPaths, lim.MaxWork, plan, cur.trace.Summary())
				s.metrics.slowQueries.Inc()
			}
		}
		keep := !req.NoCache && s.cache != nil
		set, err := stream.Result()
		if err == nil && keep {
			cur.enc, err = encodeResult(root, stream.Graph(), set.Paths(), true)
		}
		if err != nil {
			cur.err = err
			s.metrics.failed.Inc()
			return
		}
		s.metrics.completed.Inc()
		cur.total = set.Len()
		if keep {
			s.cache.put(key, cur.enc, stream.Epoch(), stream.Footprint())
		} else {
			cur.paths, cur.g = set.Paths(), stream.Graph()
		}
	}()

	if !s.cursors.add(cur) {
		// Lost the pre-check race: undo the start accounting and mark the
		// cursor discarded so the completion watcher skips the
		// completed/failed counters — a capacity rejection must not read
		// as a started+failed query in /stats.
		cur.discarded.Store(true)
		qcancel()
		s.metrics.started.Add(-1)
		s.metrics.rejected.Inc()
		writeError(w, http.StatusTooManyRequests, "over_capacity", "cursor table full (%d live cursors)", s.cursors.len())
		return
	}
	s.metrics.cursorsOpened.Inc()
	writeJSON(w, http.StatusCreated, queryResponse{ID: id, Cached: false})
}

// deadlineFor resolves the effective per-query deadline.
func (s *Server) deadlineFor(req *queryRequest) time.Duration {
	t := s.cfg.queryTimeout()
	if req.TimeoutMS > 0 {
		reqT := time.Duration(req.TimeoutMS) * time.Millisecond
		if t <= 0 || reqT < t {
			t = reqT
		}
	}
	return t
}

// handleNext serves one cursor page as NDJSON. The wait for evaluation
// completion is a long-poll bounded by the client's own request context;
// an abandoned wait leaves the evaluation running for a later retry.
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cur, ok := s.cursors.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no cursor %q", id)
		return
	}
	// Touch before the long-poll wait too: a client blocked here on a
	// slow evaluation is attentive, not idle — without this the TTL
	// sweeper could cancel a query out from under its waiting reader.
	cur.touch(time.Now())
	select {
	case <-cur.ready:
	case <-r.Context().Done():
		// Client went away while the evaluation was still running; the
		// cursor stays valid.
		return
	}
	cur.mu.Lock()
	defer cur.mu.Unlock()
	cur.touch(time.Now())
	if cur.err != nil {
		// Removal releases the per-query context (timer included); the
		// evaluation is already finished, so cancel only cleans up.
		s.cursors.remove(id)
		cur.cancel()
		writeEvalError(w, cur.err)
		return
	}
	lo := cur.pos
	cur.pos = min(lo+cur.chunk, cur.total)
	returned := cur.pos - lo
	done := cur.pos >= cur.total
	if done {
		// Exhausted: the cursor is gone after this page (a re-POST of the
		// same query hits the result cache), and its per-query context —
		// a deadline timer parented on baseCtx — is released.
		s.cursors.remove(id)
		cur.cancel()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := writePage(w, cur, lo, cur.pos); err != nil {
		// Severed mid-page: no trailer, and nothing counted as delivered.
		// The cursor has already advanced, so a retry gets the next page;
		// the client resumes from there or DELETEs.
		return
	}
	s.metrics.paths.Add(int64(returned))
	s.metrics.pages.Inc()
	trailer := pageTrailer{
		Done:      done,
		Returned:  returned,
		Delivered: int64(cur.pos),
		Total:     cur.total,
	}
	if done {
		// The query is over: close the root span so the tree's durations
		// are final, and return it to a client that asked for a trace.
		cur.root.End()
		if cur.wantTrace {
			trailer.Trace = cur.trace.Tree()
		}
	}
	writeNDJSON(w, trailer)
}

// handleCancel aborts a query and discards its cursor.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cur, ok := s.cursors.remove(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no cursor %q", id)
		return
	}
	cur.cancel()
	<-cur.ready
	s.metrics.cancelled.Inc()
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": true})
}

// statsResponse is the GET /stats body.
type statsResponse struct {
	Engine engine.Stats `json:"engine"`
	Server struct {
		InFlight    int64 `json:"in_flight"`
		LiveCursors int   `json:"live_cursors"`
		Started     int64 `json:"queries_started"`
		Completed   int64 `json:"queries_completed"`
		Failed      int64 `json:"queries_failed"`
		Rejected    int64 `json:"queries_rejected"`
		Cancelled   int64 `json:"queries_cancelled"`
		Paths       int64 `json:"paths_delivered"`
		Pages       int64 `json:"pages_served"`
		Panics      int64 `json:"panics_recovered"`
		SlowQueries int64 `json:"slow_queries"`
	} `json:"server"`
	ResultCache cacheStats `json:"result_cache"`
	ReachCache  cacheStats `json:"reach_cache"`
	Graph       struct {
		Nodes   int `json:"nodes"`
		Edges   int `json:"edges"`
		Symbols int `json:"symbols"`
	} `json:"graph"`
	Store struct {
		Epoch       uint64 `json:"epoch"`
		DeltaSize   int    `json:"delta_size"`
		DeltaNodes  int    `json:"delta_nodes"` // appended nodes in the overlay
		DeltaEdges  int    `json:"delta_edges"` // appended edges in the overlay
		DeadNodes   int    `json:"dead_nodes"`  // tombstoned nodes
		DeadEdges   int    `json:"dead_edges"`  // tombstoned edges
		Compactions uint64 `json:"compactions"`
		Ingests     int64  `json:"ingests"`
		IngestedOps int64  `json:"ingested_ops"`

		// Fault-tolerance counters (PR 8). A non-zero CompactionErrors
		// with the store still serving means the compactor is degraded
		// (retrying with backoff, reads come off the overlay) — alertable
		// without being fatal.
		CompactionErrors    uint64 `json:"compaction_errors"`
		LastCompactionError string `json:"last_compaction_error,omitempty"`
		Checkpoints         uint64 `json:"checkpoints"`
		// Durable reports whether the store runs with a WAL; the WAL
		// fields are meaningful only when true.
		Durable    bool  `json:"durable"`
		WALRecords int   `json:"wal_records"`
		WALBytes   int64 `json:"wal_bytes"`
	} `json:"store"`
}

// cacheStats is the /stats section of one footprint-invalidated cache.
type cacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// handleStats snapshots the engine's stats plus the service counters.
// The counters are read from the same obs instruments /metrics scrapes —
// one source of truth, two renderings.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.Engine = s.engine.Stats()
	resp.Server.InFlight = s.inflight.Load()
	resp.Server.LiveCursors = s.cursors.len()
	resp.Server.Started = s.metrics.started.Value()
	resp.Server.Completed = s.metrics.completed.Value()
	resp.Server.Failed = s.metrics.failed.Value()
	resp.Server.Rejected = s.metrics.rejected.Value()
	resp.Server.Cancelled = s.metrics.cancelled.Value()
	resp.Server.Paths = s.metrics.paths.Value()
	resp.Server.Pages = s.metrics.pages.Value()
	resp.ResultCache.Entries, resp.ResultCache.Hits, resp.ResultCache.Misses = s.cache.snapshot()
	resp.ReachCache.Entries, resp.ReachCache.Hits, resp.ReachCache.Misses = s.reach.snapshot()
	g, epoch := s.store.Current()
	resp.Graph.Nodes = g.LiveNodes()
	resp.Graph.Edges = g.LiveEdges()
	resp.Graph.Symbols = g.NumSymbols()
	resp.Store.Epoch = epoch
	resp.Store.DeltaSize = s.store.DeltaSize()
	resp.Store.DeltaNodes, resp.Store.DeltaEdges, resp.Store.DeadNodes, resp.Store.DeadEdges = s.store.DeltaCounts()
	resp.Store.Compactions = s.store.Compactions()
	resp.Store.Ingests = s.metrics.ingests.Value()
	resp.Store.IngestedOps = s.metrics.ingestedOps.Value()
	resp.Server.Panics = s.metrics.panics.Value()
	resp.Server.SlowQueries = s.metrics.slowQueries.Value()
	resp.Store.CompactionErrors, resp.Store.LastCompactionError = s.store.CompactionErrors()
	resp.Store.Checkpoints = s.store.Checkpoints()
	resp.Store.WALRecords, resp.Store.WALBytes, resp.Store.Durable = s.store.WALStats()
	writeJSON(w, http.StatusOK, resp)
}

// explainResponse is the POST /explain body.
type explainResponse struct {
	Plan     string   `json:"plan"`
	Rules    []string `json:"rules"`
	CacheHit bool     `json:"cache_hit"`
	Total    int      `json:"total"`
	Text     string   `json:"text"`
}

// handleExplain plans and evaluates the query, reporting the chosen plan
// with estimated vs. actual per-operator cardinalities. Explain is one
// traced run of the plan — it costs what the query costs and fails where
// the query fails — so it runs under the same admission control as
// queries.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	logical, err := compile(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if n := s.inflight.Add(1); n > int64(s.cfg.maxInFlight()) {
		s.inflight.Add(-1)
		s.metrics.rejected.Inc()
		writeError(w, http.StatusTooManyRequests, "over_capacity", "too many in-flight queries (max %d)", s.cfg.maxInFlight())
		return
	}
	defer s.inflight.Add(-1)
	ctx := s.baseCtx
	if t := s.deadlineFor(req); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	ex, err := s.engine.WithLimits(s.limitsFor(req)).Explain(ctx, logical)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, explainResponse{
		Plan:     gql.PrintPlan(ex.Plan),
		Rules:    ex.Applied,
		CacheHit: ex.CacheHit,
		Total:    ex.Result.Len(),
		Text:     ex.Format(),
	})
}

// handleInvalidate drops every cached result, path sets and reach
// answers alike.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	n := s.cache.invalidate() + s.reach.invalidate()
	writeJSON(w, http.StatusOK, map[string]any{"invalidated": n})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}
