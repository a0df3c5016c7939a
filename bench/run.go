package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/server"
)

// env is one workload's running service and the state of its clients.
type env struct {
	w     *workload
	seed  int64
	g     *graph.Graph // the generated graph, epoch 0
	store *graph.Store // the durable store of live_ingest, else nil
	svc   *server.Server
	hs    *http.Server
	base  string
	pools pools
	dir   string // data dir of the durable store
	wr    writerState

	setupS float64
	layers metricSet // per-layer numbers, filled as they are measured
}

// childResult is what a child process prints: the numbers of one
// workload run.
type childResult struct {
	SetupS    float64   `json:"setup_s"`
	E2E       metricSet `json:"e2e"`
	Layers    metricSet `json:"layers"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
}

func (w *workload) limits() core.Limits { return core.Limits{MaxLen: w.MaxLen} }

// setup builds the graph and the service and warms them up; everything
// here is charged to setup_s.
func setup(w *workload, seed int64, outDir string) (*env, error) {
	t0 := time.Now()
	e := &env{w: w, seed: seed, layers: metricSet{}}
	g, err := ldbc.Generate(w.graphConfig(seed))
	if err != nil {
		return nil, err
	}
	e.g = g
	e.layers.set("graph.build_ms", ms(time.Since(t0)), 1)
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	e.layers.set("graph.heap_mb_after_build", float64(m.HeapAlloc)/(1<<20), 1)
	if w.Kernel {
		t := time.Now()
		ix, ok := g.Bitsets()
		if !ok {
			return nil, fmt.Errorf("%s: bitset index infeasible at %d nodes", w.Name, g.NumNodes())
		}
		e.layers.set("graph.bitset_build_ms", ms(time.Since(t)), 1)
		e.layers.set("graph.bitset_mb", float64(ix.Bytes())/(1<<20), 1)
	}

	cfg := server.Config{Graph: g, ChunkSize: w.Chunk, Engine: engine.Options{Limits: w.limits()}}
	if w.Durable {
		if e.dir, err = os.MkdirTemp(outDir, "wal-"+w.Name+"-"); err != nil {
			return nil, err
		}
		if e.store, err = graph.OpenDurable(e.dir, g, graph.StoreOptions{CompactThreshold: compactThreshold}); err != nil {
			return nil, err
		}
		cfg.Store = e.store
		if err := e.wr.build(w, seed); err != nil {
			return nil, err
		}
	}
	if e.svc, err = server.New(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.hs = &http.Server{Handler: e.svc}
	go e.hs.Serve(ln)
	e.base = "http://" + ln.Addr().String()
	e.pools = buildPools(w, seed, g)

	// One client warms up: two would evaluate the same all-pairs result at
	// once or not, depending on the seed's op order, and set-up time with it.
	warm := e.drive(phaseWarmup, 1, func(done int, _ time.Time) bool { return done >= w.Warmup },
		func(done int, _ time.Time) bool { return done >= 2*undoLag })
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %s", w.Name, strings.Join(warm.failures, "; "))
	}
	e.setupS = time.Since(t0).Seconds()
	return e, nil
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	e.svc.Close()
	if e.store != nil {
		e.store.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// phaseStats is what the clients of one phase observed.
type phaseStats struct {
	queryMS, firstPageMS, reachMS, ingestMS []float64
	paths, ingestedOps                      int
	cachedQ, cachedR                        int // answers the service flagged "cached"
	attempted, failed, rejected             int
	failures                                []string
	// seenQ/seenR hold the digest of the first answer to each distinct
	// request; later answers must repeat it, and the oracle checks it
	// after the phase.
	seenQ, seenR map[int]digest
}

func newPhaseStats() *phaseStats {
	return &phaseStats{seenQ: map[int]digest{}, seenR: map[int]digest{}}
}

func (s *phaseStats) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *phaseStats) opError(what string, err error) {
	if errors.Is(err, errRejected) {
		s.rejected++
	}
	s.fail("%s: %v", what, err)
}

func (s *phaseStats) merge(o *phaseStats) {
	s.queryMS = append(s.queryMS, o.queryMS...)
	s.firstPageMS = append(s.firstPageMS, o.firstPageMS...)
	s.reachMS = append(s.reachMS, o.reachMS...)
	s.ingestMS = append(s.ingestMS, o.ingestMS...)
	s.paths += o.paths
	s.cachedQ += o.cachedQ
	s.cachedR += o.cachedR
	s.ingestedOps += o.ingestedOps
	s.attempted += o.attempted
	s.failed += o.failed
	s.rejected += o.rejected
	s.failures = append(s.failures, o.failures...)
	for i, d := range o.seenQ {
		s.see(s.seenQ, i, d, "query")
	}
	for i, d := range o.seenR {
		s.see(s.seenR, i, d, "reach")
	}
}

func (s *phaseStats) ops() int { return len(s.queryMS) + len(s.reachMS) + len(s.ingestMS) }

// stopFunc tells a client whether to stop, given the ops it has done.
type stopFunc func(done int, now time.Time) bool

// drive runs one phase: closed-loop readers, plus the writer on a durable
// workload, each until its stop function says so.
func (e *env) drive(phase int64, readers int, stopReader, stopWriter stopFunc) *phaseStats {
	var parts []*phaseStats
	var wg sync.WaitGroup
	launch := func(client func(st *phaseStats)) {
		st := newPhaseStats()
		parts = append(parts, st)
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(st)
		}()
	}
	for i := range readers {
		launch(func(st *phaseStats) { e.reader(e.opGen(phase, i), st, stopReader) })
	}
	if e.w.Durable {
		launch(func(st *phaseStats) { e.writer(st, stopWriter) })
	}
	wg.Wait()
	total := newPhaseStats()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// reader is one closed-loop client of the query mix.
func (e *env) reader(gen *opGen, st *phaseStats, stop stopFunc) {
	c := newClient(e.base)
	defer c.close()
	// On a live graph answers change with every batch, so only the
	// trailer arithmetic is checked in the phase; the digests are checked
	// against the final state once the writer has stopped.
	digests := !e.w.Durable
	for done := 0; !stop(done, time.Now()); done++ {
		st.attempted++
		isReach, i := gen.next()
		if isReach {
			t := time.Now()
			a, d, err := c.reach(e.pools.Reach[i], e.w.NoCache)
			if err != nil {
				st.opError("reach", err)
				continue
			}
			st.reachMS = append(st.reachMS, ms(time.Since(t)))
			if a.Cached {
				st.cachedR++
			}
			if digests {
				st.see(st.seenR, i, d, "reach")
			}
			continue
		}
		res, err := c.query(e.pools.Queries[i].Text, e.w.NoCache, false)
		if err != nil {
			st.opError("query", err)
			continue
		}
		st.queryMS = append(st.queryMS, ms(res.Total))
		st.firstPageMS = append(st.firstPageMS, ms(res.FirstPage))
		st.paths += res.N
		if res.Cached {
			st.cachedQ++
		}
		if digests {
			st.see(st.seenQ, i, res.digest, "query")
		}
	}
}

func (s *phaseStats) see(seen map[int]digest, i int, d digest, what string) {
	if prev, ok := seen[i]; ok && prev != d {
		s.fail("%s pool[%d]: answer changed between requests: %+v then %+v", what, i, prev, d)
		return
	}
	seen[i] = d
}

// writerState is the update stream of live_ingest: streamBatches insert
// batches from ldbc.UpdateStream and, for each, the batch that deletes
// it, as NDJSON request bodies. The writer posts insert i, then the
// delete of insert i-undoLag, so the graph stays within undoLag×batchOps
// objects of its generated size and batches can be reused in a cycle.
type writerState struct {
	adds, undos [][]byte
	next        int // inserts posted so far
	acked       ingestAck
	bodyBytes   int // request-body bytes of the first streamBatches inserts
}

func (ws *writerState) build(w *workload, seed int64) error {
	stream, err := ldbc.UpdateStream(ldbc.UpdateConfig{
		Batches: streamBatches, OpsPerBatch: batchOps, ExistingPersons: w.Persons, PersonFraction: 0.4, Seed: seed,
	})
	if err != nil {
		return err
	}
	for _, b := range stream {
		isolate(b, w.Persons)
		ws.adds = append(ws.adds, batchNDJSON(b))
		ws.undos = append(ws.undos, batchNDJSON(undoOf(b)))
		ws.bodyBytes += len(ws.adds[len(ws.adds)-1])
	}
	return nil
}

// isolate rewrites edge endpoints that name a person inserted by another
// batch of the stream onto a person of the base graph, so that deleting a
// batch never cascades into edges a different batch owns.
func isolate(b graph.Batch, persons int) {
	own := map[string]bool{}
	for _, op := range b.Ops {
		if op.Kind == graph.OpAddNode {
			own[op.Key] = true
		}
	}
	onto := func(key string) string {
		if own[key] || !strings.HasPrefix(key, "up") {
			return key
		}
		n, _ := strconv.Atoi(key[2:])
		return "p" + strconv.Itoa(1+n%persons)
	}
	for i := range b.Ops {
		if b.Ops[i].Kind == graph.OpAddEdge {
			b.Ops[i].Src, b.Ops[i].Dst = onto(b.Ops[i].Src), onto(b.Ops[i].Dst)
		}
	}
}

// undoOf deletes what b inserted: edges first, then nodes.
func undoOf(b graph.Batch) graph.Batch {
	var edges, nodes []graph.Op
	for _, op := range b.Ops {
		switch op.Kind {
		case graph.OpAddEdge:
			edges = append(edges, graph.Op{Kind: graph.OpDelEdge, Key: op.Key})
		case graph.OpAddNode:
			nodes = append(nodes, graph.Op{Kind: graph.OpDelNode, Key: op.Key})
		}
	}
	return graph.Batch{Ops: append(edges, nodes...)}
}

// batchNDJSON renders a batch as a POST /ingest body.
func batchNDJSON(b graph.Batch) []byte {
	type jsonValue struct {
		Kind string  `json:"kind"`
		Str  *string `json:"str,omitempty"`
		Int  *int64  `json:"int,omitempty"`
	}
	type jsonOp struct {
		Op    string               `json:"op"`
		Key   string               `json:"key"`
		Src   string               `json:"src,omitempty"`
		Dst   string               `json:"dst,omitempty"`
		Label string               `json:"label,omitempty"`
		Props map[string]jsonValue `json:"props,omitempty"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, op := range b.Ops {
		j := jsonOp{Op: op.Kind.String(), Key: op.Key, Src: op.Src, Dst: op.Dst, Label: op.Label}
		for name, v := range op.Props {
			if j.Props == nil {
				j.Props = map[string]jsonValue{}
			}
			switch v.Kind {
			case graph.KindString:
				s := v.Str()
				j.Props[name] = jsonValue{Kind: "string", Str: &s}
			case graph.KindInt:
				n := v.Int()
				j.Props[name] = jsonValue{Kind: "int", Int: &n}
			default:
				panic("bench: update stream property of kind " + v.Kind.String())
			}
		}
		enc.Encode(j)
	}
	return buf.Bytes()
}

// writer is the single ingest client. Epochs are logical batch numbers,
// so every acknowledgement must carry the previous epoch plus one — a
// gap is a lost acknowledgement.
func (e *env) writer(st *phaseStats, stop stopFunc) {
	c := newClient(e.base)
	defer c.close()
	ws := &e.wr
	post := func(body []byte) {
		st.attempted++
		t := time.Now()
		ack, err := c.ingest(body)
		if err != nil {
			st.opError("ingest", err)
			return
		}
		st.ingestMS = append(st.ingestMS, ms(time.Since(t)))
		st.ingestedOps += ack.Ops
		if ws.acked.Epoch != 0 && ack.Epoch != ws.acked.Epoch+1 {
			st.fail("ingest: epoch %d acknowledged after %d", ack.Epoch, ws.acked.Epoch)
		}
		ws.acked = ack
	}
	for done := 0; !stop(done, time.Now()); done++ {
		post(ws.adds[ws.next%streamBatches])
		if ws.next >= undoLag {
			post(ws.undos[(ws.next-undoLag)%streamBatches])
		}
		ws.next++
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	status, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runChild is one workload run in this process: set-up, the timed phase,
// the answer checks and, when traced, the layer walk.
func runChild(w *workload, seed int64, seconds float64, traced, setupOnly bool, outDir string) (*childResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	e, err := setup(w, seed, outDir)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := &childResult{SetupS: e.setupS, E2E: metricSet{}, Layers: e.layers}
	if setupOnly {
		return res, nil
	}

	probe := newClient(e.base)
	defer probe.close()
	stats0, err := probe.stats()
	if err != nil {
		return nil, err
	}
	fsync0 := graph.WALFsyncSeconds().Snapshot()
	until := func(share float64) stopFunc {
		deadline := time.Now().Add(time.Duration(share * seconds * float64(time.Second)))
		return func(_ int, now time.Time) bool { return !now.Before(deadline) }
	}
	cpu0, start := cpuTime(), time.Now()
	stop := until(1 - w.ReachTail)
	st := e.drive(phaseTimed, w.clients(), stop, stop)
	wall, cpu := time.Since(start).Seconds(), cpuTime()-cpu0
	tail := newPhaseStats()
	if w.ReachTail > 0 {
		stop = until(w.ReachTail)
		tail = e.drive(phaseTail, w.clients(), stop, stop)
	}
	rss := peakRSSMB()
	stats1, err := probe.stats()
	if err != nil {
		return nil, err
	}
	if len(st.queryMS) == 0 {
		return nil, fmt.Errorf("%s: no query completed in %.0f s: %s", w.Name, seconds, strings.Join(st.failures, "; "))
	}

	sort.Float64s(st.queryMS)
	sort.Float64s(st.firstPageMS)
	nq := len(st.queryMS)
	res.E2E.set("setup_s", e.setupS, 1)
	res.E2E.set("queries_per_s", float64(nq)/wall, nq)
	res.E2E.set("query_p50_ms", percentile(st.queryMS, 0.50), nq)
	res.E2E.set("paths_per_s", float64(st.paths)/wall, st.paths)
	res.E2E.set("cpu_ms_per_op", ms(cpu)/float64(st.ops()), st.ops())

	l := e.layers
	l.set("query_p95_ms", percentile(st.queryMS, 0.95), nq)
	l.set("first_page_p50_ms", percentile(st.firstPageMS, 0.50), nq)
	l.set("peak_rss_mb", rss, 1)
	if nq >= 1000 { // ten samples beyond the 99th percentile
		l.set("http.query_p99_ms", percentile(st.queryMS, 0.99), nq)
	}
	if reachMS := append(st.reachMS, tail.reachMS...); len(reachMS) > 0 {
		sort.Float64s(reachMS)
		l.set("reach_p50_ms", percentile(reachMS, 0.50), len(reachMS))
		l.set("server.reach_cache_hit_ratio", ratio(float64(st.cachedR+tail.cachedR), float64(len(reachMS))), len(reachMS))
	}
	if n := len(st.ingestMS); n > 0 {
		sort.Float64s(st.ingestMS)
		l.set("ingest_ops_per_s", float64(st.ingestedOps)/wall, st.ingestedOps)
		l.set("ingest_ack_p50_ms", percentile(st.ingestMS, 0.50), n)
		l.set("graph.ingest_ack_p95_ms", percentile(st.ingestMS, 0.95), n)
		fs := graph.WALFsyncSeconds().Snapshot()
		l.set("graph.wal_fsync_us", ratio(float64(fs.Sum-fsync0.Sum)/1e3, float64(fs.Count-fsync0.Count)), int(fs.Count-fsync0.Count))
		l.set("graph.compactions", float64(stats1.Store.Compactions-stats0.Store.Compactions), 1)
	}
	d0, d1 := stats0.Engine, stats1.Engine
	hits, misses := float64(d1.PlanCacheHits-d0.PlanCacheHits), float64(d1.PlanCacheMisses-d0.PlanCacheMisses)
	l.set("engine.plan_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	kernel, fallback := float64(d1.ReachKernelRuns-d0.ReachKernelRuns), float64(d1.ReachFallbacks-d0.ReachFallbacks)
	l.set("reach.kernel_ratio", ratio(kernel, kernel+fallback), int(kernel+fallback))
	// Hit ratios are what the clients were told: /stats counts an entry
	// found but invalidated by a later batch as a hit.
	l.set("server.result_cache_hit_ratio", ratio(float64(st.cachedQ), float64(nq)), nq)
	l.set("server.rejected_ratio", ratio(float64(st.rejected), float64(st.attempted)), st.attempted)

	// Answer checks, after the resource readings so that the oracle's own
	// memory and CPU stay out of them.
	st.merge(tail)
	final := e.g
	if w.Durable {
		if final, err = e.settleAndRecover(st); err != nil {
			return nil, err
		}
		e.rereadOnFinalState(probe, st)
	}
	n, failures := newOracle(final, w.MaxLen).verify(e.pools, st.seenQ, st.seenR)
	st.attempted += n
	rn, rfailures := referenceCheck(w, seed)
	st.attempted += rn
	for _, f := range append(failures, rfailures...) {
		st.fail("%s", f)
	}

	if traced {
		if err := e.layerWalk(outDir); err != nil {
			return nil, err
		}
	}
	for _, f := range st.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", w.Name, f)
	}
	res.Attempted, res.Failed = st.attempted, st.failed
	l.set("failed_ratio", ratio(float64(st.failed), float64(st.attempted)), st.attempted)
	return res, nil
}

// settleAndRecover waits until the store's compactor is idle, then checks
// durability: the data directory, reopened as after a crash (the serving
// store is never closed first), must hold exactly the last acknowledged
// batch. It returns the sealed final state for the oracle.
func (e *env) settleAndRecover(st *phaseStats) (*graph.Graph, error) {
	// WALStats takes the writer lock, so it returns only between
	// compactions; two quiet reads 20 ms apart mean none is queued.
	for {
		before := e.store.Compactions() + e.store.Checkpoints()
		e.store.WALStats()
		time.Sleep(20 * time.Millisecond)
		e.store.WALStats()
		if e.store.Compactions()+e.store.Checkpoints() == before {
			break
		}
	}
	t := time.Now()
	re, err := graph.OpenDurable(e.dir, nil, graph.StoreOptions{CompactThreshold: -1})
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", e.dir, err)
	}
	e.layers.set("graph.recovery_ms", ms(time.Since(t)), 1)
	defer re.Close()
	st.attempted++
	ack, g := e.wr.acked, re.Graph()
	if re.Epoch() != ack.Epoch || g.LiveNodes() != ack.Nodes || g.LiveEdges() != ack.Edges {
		st.fail("recovery: reopened at epoch %d with %d nodes, %d edges; last acknowledgement was epoch %d, %d nodes, %d edges",
			re.Epoch(), g.LiveNodes(), g.LiveEdges(), ack.Epoch, ack.Nodes, ack.Edges)
	}
	return e.store.Graph().Rebuild()
}

// rereadOnFinalState asks the service, now that the writer has stopped,
// for every distinct request the readers sent, so the oracle can check
// the answers against the final graph.
func (e *env) rereadOnFinalState(c *client, st *phaseStats) {
	for i, q := range e.pools.Queries {
		st.attempted++
		res, err := c.query(q.Text, false, false)
		if err != nil {
			st.opError("query on final state", err)
			continue
		}
		st.seenQ[i] = res.digest
	}
	for i, r := range e.pools.Reach {
		st.attempted++
		_, d, err := c.reach(r, false)
		if err != nil {
			st.opError("reach on final state", err)
			continue
		}
		st.seenR[i] = d
	}
}
