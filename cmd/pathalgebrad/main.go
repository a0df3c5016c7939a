// Command pathalgebrad is the path-algebra query daemon: it loads a
// property graph once and serves queries over HTTP through the
// internal/server query service — cancellable streaming evaluation,
// session cursors paging NDJSON results, per-query limits and deadlines,
// a result LRU, and /stats + /explain observability.
//
// Usage:
//
//	pathalgebrad -figure1                                # paper's Figure 1 graph
//	pathalgebrad -graph g.json -addr :7688
//	pathalgebrad -nodes nodes.csv -edges edges.csv       # LDBC-style CSV
//	pathalgebrad -snb-persons 2000                       # synthetic SNB graph
//
// Endpoints (see internal/server):
//
//	POST   /query            start a query        → {"id": "q1", ...}
//	GET    /query/{id}/next  page results (NDJSON: path lines + trailer)
//	DELETE /query/{id}       cancel a query
//	POST   /ingest           apply a mutation batch (NDJSON or text/csv)
//	GET    /stats            engine + server counters
//	GET    /metrics          Prometheus text exposition
//	POST   /explain          plan with estimated vs actual cardinalities
//	POST   /cache/invalidate drop the result LRU
//	GET    /healthz          liveness
//
// Observability: -slow-query <dur> logs any evaluation at or above the
// threshold with its plan and span summary; -pprof mounts the
// net/http/pprof handlers under /debug/pprof/; ?trace=1 on /query or
// /reach returns a per-query span tree.
//
// On SIGTERM/SIGINT the daemon drains gracefully: it stops accepting
// connections, gives in-flight requests -drain-timeout to finish, then
// aborts remaining evaluations (clients see HTTP 503, kind "draining").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathalgebra"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/server"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "pathalgebrad:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored out of main so the smoke test can
// drive a full serve/drain cycle in-process. If ready is non-nil, the
// daemon's bound address is sent on it once the listener is up.
func run(args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("pathalgebrad", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":7688", "listen address")
		graphFile  = fs.String("graph", "", "JSON graph file")
		nodesCSV   = fs.String("nodes", "", "node CSV file (with -edges)")
		edgesCSV   = fs.String("edges", "", "edge CSV file (with -nodes)")
		figure1    = fs.Bool("figure1", false, "serve the paper's Figure 1 graph")
		snbPersons = fs.Int("snb-persons", 0, "serve a synthetic SNB graph with this many persons")

		maxLen   = fs.Int("maxlen", 0, "default per-query recursive path length bound")
		maxPaths = fs.Int("maxpaths", 0, "default per-query result-size bound (0 = engine safety net)")
		maxWork  = fs.Int("maxwork", 0, "default per-query materialization bound (0 = engine safety net)")

		inflight     = fs.Int("max-inflight", 0, "max concurrently evaluating queries (0 = 2x GOMAXPROCS)")
		maxCursors   = fs.Int("max-cursors", 0, "max live cursors (0 = 1024)")
		chunk        = fs.Int("chunk", 0, "default paths per result page (0 = 256)")
		cacheSize    = fs.Int("cache", 0, "result LRU entries (0 = 128, negative disables)")
		queryTimeout = fs.Duration("query-timeout", 0, "per-query evaluation deadline (0 = 60s, negative disables)")
		cursorTTL    = fs.Duration("cursor-ttl", 0, "idle cursor eviction (0 = 5m, negative disables)")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "graceful shutdown grace period")
		slowQuery    = fs.Duration("slow-query", 0,
			"log queries whose evaluation takes at least this long, with plan and span summary (0 disables)")
		pprof = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		compactThreshold = fs.Int("compact-threshold", 0,
			"delta ops before background compaction folds the overlay into a fresh CSR (0 = 4096, negative disables)")

		dataDir = fs.String("data-dir", "",
			"durable data directory: ingested batches are WAL-logged (fsync before acknowledge) and replayed over the graph source on restart; compactions checkpoint into a snapshot")

		readHeaderTimeout = fs.Duration("read-header-timeout", 10*time.Second,
			"close connections whose request headers take longer than this (slow-loris guard; negative disables)")
		writeTimeout = fs.Duration("write-timeout", 2*time.Minute,
			"per-request response write deadline; must exceed query-timeout or long polls break (negative disables)")
		idleTimeout = fs.Duration("idle-timeout", 2*time.Minute,
			"close keep-alive connections idle longer than this (negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, desc, err := loadGraph(*graphFile, *nodesCSV, *edgesCSV, *figure1, *snbPersons)
	if err != nil {
		return err
	}

	// With -data-dir the daemon owns a WAL-durable store: the graph source
	// is the seed, logged batches replay over it on restart (a checkpoint
	// snapshot supersedes the seed entirely), and every /ingest is fsync'd
	// before it is acknowledged.
	var store *graph.Store
	if *dataDir != "" {
		store, err = graph.OpenDurable(*dataDir, g, graph.StoreOptions{CompactThreshold: *compactThreshold})
		if err != nil {
			return err
		}
		defer store.Close()
		g = store.Graph()
		desc = fmt.Sprintf("%s (durable: %s)", desc, *dataDir)
	}

	svc, err := server.New(server.Config{
		Graph: g,
		Store: store,
		Engine: pathalgebra.EngineOptions{
			Limits: pathalgebra.Limits{MaxLen: *maxLen, MaxPaths: *maxPaths, MaxWork: *maxWork},
		},
		MaxInFlight:  *inflight,
		MaxCursors:   *maxCursors,
		ChunkSize:    *chunk,
		CacheSize:    *cacheSize,
		QueryTimeout: *queryTimeout,
		CursorTTL:    *cursorTTL,
		SlowQuery:    *slowQuery,

		CompactThreshold: *compactThreshold,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	// -pprof mounts the profiling handlers next to the service routes.
	// Off by default: profiling endpoints expose heap contents and must
	// be opted into, like the fault-injection seams.
	var handler http.Handler = svc
	if *pprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		mux.Handle("/", svc)
		handler = mux
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Connection hygiene against slow or stalled clients: a peer that
	// trickles headers, never reads its response, or parks an idle
	// keep-alive connection is bounded by these deadlines instead of
	// holding a server goroutine (and its cursor admission slot) forever.
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: max(*readHeaderTimeout, 0),
		WriteTimeout:      max(*writeTimeout, 0),
		IdleTimeout:       max(*idleTimeout, 0),
	}
	log.Printf("pathalgebrad: serving %s on %s (nodes=%d edges=%d symbols=%d)",
		desc, ln.Addr(), g.NumNodes(), g.NumEdges(), g.NumSymbols())
	if ready != nil {
		ready <- ln.Addr()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, give in-flight requests the grace
	// period, then abort remaining evaluations so their long-polling
	// /next requests fail fast (503 draining) instead of hanging.
	log.Printf("pathalgebrad: draining (grace %s)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-shutdownCtx.Done()
		svc.Close()
	}()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	svc.Close()
	log.Printf("pathalgebrad: drained")
	return nil
}

// loadGraph resolves the graph-source flags, in precedence order: CSV
// pair, then JSON file unless -figure1 explicitly forces the paper's
// graph (matching the pathalgebra CLI), then synthetic SNB, then
// Figure 1 as the default.
func loadGraph(graphFile, nodesCSV, edgesCSV string, figure1 bool, snbPersons int) (*graph.Graph, string, error) {
	switch {
	case nodesCSV != "" || edgesCSV != "":
		if nodesCSV == "" || edgesCSV == "" {
			return nil, "", fmt.Errorf("-nodes and -edges must be given together")
		}
		nf, err := os.Open(nodesCSV)
		if err != nil {
			return nil, "", err
		}
		defer nf.Close()
		ef, err := os.Open(edgesCSV)
		if err != nil {
			return nil, "", err
		}
		defer ef.Close()
		g, err := graph.ReadCSV(nf, ef)
		return g, fmt.Sprintf("CSV %s + %s", nodesCSV, edgesCSV), err
	case graphFile != "" && !figure1:
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := graph.ReadJSON(f)
		return g, fmt.Sprintf("JSON %s", graphFile), err
	case snbPersons > 0:
		cfg := ldbc.DefaultConfig()
		cfg.Persons = snbPersons
		cfg.Messages = 2 * snbPersons
		g, err := ldbc.Generate(cfg)
		return g, fmt.Sprintf("synthetic SNB (%d persons)", snbPersons), err
	default:
		return ldbc.Figure1(), "Figure 1", nil
	}
}
