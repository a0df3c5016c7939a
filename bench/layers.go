package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
)

// The layer walk is the traced run. After the timed phase it replays a
// prefix of client 0's op sequence single-threaded and, for each op, calls
// the layers' exported functions in pipeline order on that op's inputs,
// with a harness span around every call:
//
//	op
//	├ gql.parse, gql.compile            gql.Parse, gql.Compile
//	├ opt.plan_cold, engine.plan_hit    Engine.Plan on a fresh engine, twice
//	├ engine.eval                       Engine.EvalPaths, 1 worker
//	│ ├ automaton.compile, .search      re-run: Build+Compile, EvalWithOptions
//	│ │ └ pathset.add                   re-run: Add the output to a fresh Set
//	│ └ core.groupby, .orderby, .project, .union   re-run on the search output
//	├ engine.stream                     StreamOf + Next over the result
//	└ http.roundtrip                    the op over loopback, result cached
//	  └ server.post, server.next        Server.ServeHTTP, bracketed in the handler
//
// Evaluation and delivery are measured apart on purpose: engine.eval is
// the cost of producing the result, http.roundtrip the cost of serving an
// already-produced one. A reach op has reach.kernel or reach.fallback
// (Engine.Reach) in place of engine.eval and engine.stream.

// allocSample is how many ops get the extra evaluations that count
// allocations.
const allocSample = 8

// traceSample is how many ops are replayed with "trace":true for
// obs.trace_overhead_pct.
const traceSample = 16

type layerWalk struct {
	e   *env
	g   *graph.Graph // the view the walk evaluates on
	lim core.Limits
	// rec is nil in the untraced replay. It is atomic because the handler
	// middleware reads it on the connection's goroutine.
	rec atomic.Pointer[recorder]

	c *client
	// The op and span the next request belongs to, for the handler
	// middleware that brackets Server.ServeHTTP.
	curOp, curParent atomic.Int64

	// evaluates[op] is whether the service evaluates that op, as opposed
	// to answering it from the result cache.
	evaluates map[int]bool

	samples map[string][]float64
	skipped int
	// Sums for ratio metrics.
	searchNS, searchPaths, produced, results float64
	// workers is the worker count search passes to the automaton; the
	// op* fields are what the searches of the current op took and gave.
	workers                 int
	opSearchNS, opSearchOut float64
}

func (lw *layerWalk) add(name string, v float64) { lw.samples[name] = append(lw.samples[name], v) }

// ServeHTTP brackets the service's handler in a span parented to the
// loopback round trip that caused it.
func (lw *layerWalk) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "server.next"
	if r.Method == http.MethodPost {
		name = "server.post"
	}
	id := lw.rec.Load().begin(int(lw.curOp.Load()), name, int(lw.curParent.Load()))
	lw.e.svc.ServeHTTP(w, r)
	lw.rec.Load().end(id)
}

// walkOp is one entry of the replayed sequence.
type walkOp struct {
	isReach bool
	idx     int
}

func (e *env) layerWalk(outDir string) error {
	lw := &layerWalk{e: e, g: e.g, lim: e.w.limits(), samples: map[string][]float64{}, evaluates: map[int]bool{}, workers: 1}
	if e.store != nil {
		// The writer has stopped; the walk reads the live store's final
		// state through whatever overlay the last compaction left.
		lw.g = e.store.Graph()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: lw}
	go hs.Serve(ln)
	defer hs.Close()
	lw.c = newClient("http://" + ln.Addr().String())
	defer lw.c.close()

	// The replayed ops: a prefix of client 0's timed sequence and, where
	// the phase ends in a reach tail, a fifth as many from the tail's.
	ops := make([]walkOp, e.w.WalkOps)
	gen := e.opGen(phaseTimed, 0)
	for i := range ops {
		ops[i].isReach, ops[i].idx = gen.next()
	}
	if e.w.ReachTail > 0 {
		gen = e.opGen(phaseTail, 0)
		for range e.w.WalkOps / 5 {
			isReach, idx := gen.next()
			ops = append(ops, walkOp{isReach, idx})
		}
	}

	replay := func(measure bool) (time.Duration, error) {
		var total time.Duration
		for i, op := range ops {
			d, err := lw.walk(i, op, measure)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	}
	// Traced replay: measurements and spans. Then the same ops with spans
	// off: the difference is the recorder's own cost.
	rec := newRecorder()
	lw.rec.Store(rec)
	traced, err := replay(true)
	if err != nil {
		return err
	}
	lw.rec.Store(nil)
	untraced, err := replay(false)
	if err != nil {
		return err
	}
	if err := lw.obsOverhead(ops); err != nil {
		return err
	}

	l := e.layers
	for name, xs := range lw.samples {
		l.set(name, median(xs), len(xs))
	}
	l.set("automaton.parallel_speedup", ratio(median(lw.samples["automaton.search_ms"]), median(lw.samples["automaton.search_par_ms"])), len(lw.samples["automaton.search_par_ms"]))
	l.set("automaton.paths_per_ms", ratio(lw.searchPaths, lw.searchNS/1e6), int(lw.searchPaths))
	l.set("engine.produced_per_result", ratio(lw.produced, lw.results), int(lw.results))
	l.set("bench.layer_walk_skipped", float64(lw.skipped), len(ops))
	l.set("bench.trace_overhead_pct", 100*ratio(float64(traced-untraced), float64(untraced)), len(ops))

	if e.store != nil {
		if err := e.storeProbes(outDir); err != nil {
			return err
		}
	}
	return lw.writeTrace(rec, outDir)
}

// walk replays one op. With measure it first takes the measurements that
// must stay out of the op's root span (they repeat work), then runs the
// spanned pipeline; it returns the root span's duration.
func (lw *layerWalk) walk(id int, op walkOp, measure bool) (time.Duration, error) {
	if op.isReach {
		return lw.walkReach(id, lw.e.pools.Reach[op.idx], measure)
	}
	return lw.walkQuery(id, lw.e.pools.Queries[op.idx], measure)
}

func (lw *layerWalk) span(op int, name string, parent int, fn func()) int {
	id := lw.rec.Load().begin(op, name, parent)
	fn()
	lw.rec.Load().end(id)
	return id
}

// front runs the spans every op starts with — parse, compile, a cold plan
// — and returns the logical and the physical plan with the engine that
// planned.
func (lw *layerWalk) front(id, root int, text string) (logical, plan core.PathExpr, eng *engine.Engine, err error) {
	var ast *gql.Query
	lw.span(id, "gql.parse", root, func() { ast, err = gql.Parse(text) })
	if err != nil {
		return nil, nil, nil, err
	}
	lw.span(id, "gql.compile", root, func() { logical, err = gql.Compile(ast) })
	if err != nil {
		return nil, nil, nil, err
	}
	eng = lw.newEngine()
	lw.span(id, "opt.plan_cold", root, func() { plan, _ = eng.Plan(logical) })
	return logical, plan, eng, nil
}

// overLoopback sends the op over the walk's listener inside an
// http.roundtrip span that the handler middleware parents its spans to,
// and closes the op's root.
func (lw *layerWalk) overLoopback(id, root int, request func() error) error {
	rt := lw.rec.Load().begin(id, "http.roundtrip", root)
	lw.curOp.Store(int64(id))
	lw.curParent.Store(int64(rt))
	err := request()
	lw.rec.Load().end(rt)
	lw.rec.Load().end(root)
	return err
}

// addFront records the samples of front's spans.
func (lw *layerWalk) addFront(by map[string]float64) {
	lw.add("gql.parse_us", by["gql.parse"]/1e3)
	lw.add("gql.compile_us", by["gql.compile"]/1e3)
	lw.add("opt.plan_cold_us", by["opt.plan_cold"]/1e3)
}

func (lw *layerWalk) newEngine() *engine.Engine {
	return engine.New(lw.g, engine.Options{Limits: lw.lim, Parallelism: 1})
}

func (lw *layerWalk) walkQuery(id int, q queryOp, measure bool) (time.Duration, error) {
	if measure {
		cached, err := lw.measureServer(q)
		if err != nil {
			return 0, err
		}
		lw.evaluates[id] = lw.e.w.NoCache || !cached
	}
	var (
		set  *pathset.Set
		eval int
		err  error
	)
	first := lw.mark()
	lw.opSearchNS, lw.opSearchOut = 0, 0
	eng := lw.newEngine()
	if !lw.evaluates[id] {
		// The service answers this op from its result cache and evaluates
		// nothing, so the evaluation is measured in a tree of its own
		// ("offpath") beside the op's: the layers still get their numbers,
		// the op's time does not include them.
		x, err := compile(q.Text)
		if err != nil {
			return 0, err
		}
		offPlan, _ := eng.Plan(x)
		off := lw.rec.Load().begin(id, "offpath", -1)
		eval = lw.span(id, "engine.eval", off, func() { set, err = eng.EvalPaths(offPlan) })
		lw.rec.Load().end(off)
		if err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	root := lw.rec.Load().begin(id, "op", -1)
	logical, plan, planner, err := lw.front(id, root, q.Text)
	if err != nil {
		return 0, err
	}
	lw.span(id, "engine.plan_hit", root, func() { planner.Plan(logical) })
	if lw.evaluates[id] {
		eval = lw.span(id, "engine.eval", root, func() { set, err = eng.EvalPaths(plan) })
		if err != nil {
			return 0, err
		}
	}
	pages := 0
	lw.span(id, "engine.stream", root, func() {
		st := engine.StreamOf(lw.g, set, lw.e.w.Chunk)
		for {
			chunk, _ := st.Next()
			if chunk == nil {
				break
			}
			pages++
		}
		st.Close()
	})
	var res queryResult
	err = lw.overLoopback(id, root, func() (err error) {
		res, err = lw.c.query(q.Text, false, false)
		return err
	})
	total := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if !measure {
		return total, nil
	}

	// The operators are re-run after the root span has closed, so that
	// the time they take is not the op's; adopt lays them inside
	// engine.eval, whose self time is then what the engine adds.
	_, isJoin := plan.(core.Join)
	out, kids, ok := lw.decompose(id, eval, plan, q.SeedKey)
	switch {
	case ok && out.Len() != set.Len():
		return 0, fmt.Errorf("layer walk: %s: decomposed pipeline gave %d paths, Engine.EvalPaths %d", q.Text, out.Len(), set.Len())
	case ok:
		lw.rec.Load().adopt(eval, kids)
	case !isJoin:
		lw.skipped++
	}
	lw.produced += float64(eng.Stats().PathsProduced)
	lw.results += float64(set.Len())
	by, self := lw.opTotals(first)
	lw.addFront(by)
	lw.add("engine.plan_hit_us", by["engine.plan_hit"]/1e3)
	lw.add("engine.eval_ms", by["engine.eval"]/1e6)
	lw.add("engine.stream_us_per_page", ratio(by["engine.stream"]/1e3, float64(max(pages, 1))))
	lw.add("http.overhead_us_per_request", ratio(self["http.roundtrip"]/1e3, float64(res.Requests)))
	if isJoin {
		lw.add("engine.join_ms", by["engine.eval"]/1e6)
	}
	if ok {
		lw.add("engine.self_ms", self["engine.eval"]/1e6)
		lw.add("automaton.compile_us", by["automaton.compile"]/1e3)
		lw.add("automaton.search_ms", by["automaton.search"]/1e6)
		lw.searchNS += by["automaton.search"]
		lw.searchPaths += lw.opSearchOut
		lw.add("pathset.add_ns_per_path", ratio(by["pathset.add"], lw.opSearchOut))
		for _, name := range []string{"core.groupby", "core.orderby", "core.project"} {
			if v, ok := by[name]; ok {
				lw.add(name+"_ms", v/1e6)
			}
		}
		lw.measureParallel(id, plan, q.SeedKey)
		lw.measureMerge(set)
	}
	if id < allocSample {
		lw.measureAllocs(q, plan)
	}
	return total, nil
}

func (lw *layerWalk) walkReach(id int, r reachOp, measure bool) (time.Duration, error) {
	if measure { // fill the reach cache, so the round trip below is delivery only
		body, _ := json.Marshal(map[string]any{"query": r.Text, "mode": r.Mode})
		if rr, _ := lw.serve(http.MethodPost, "/reach", body); rr.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process POST /reach %q: status %d: %s", r.Text, rr.Code, rr.Body)
		}
	}
	first := lw.mark()
	t0 := time.Now()
	root := lw.rec.Load().begin(id, "op", -1)
	logical, _, eng, err := lw.front(id, root, r.Text)
	if err != nil {
		return 0, err
	}
	var res *engine.ReachResult
	ev := lw.span(id, "reach.fallback", root, func() { res, err = eng.Reach(logical, reachMode(r.Mode)) })
	if err != nil {
		return 0, err
	}
	if res.Kernel {
		lw.rec.Load().rename(ev, "reach.kernel")
	}
	err = lw.overLoopback(id, root, func() error {
		_, _, err := lw.c.reach(r, false)
		return err
	})
	total := time.Since(t0)
	if err != nil || !measure {
		return total, err
	}
	by, self := lw.opTotals(first)
	lw.addFront(by)
	lw.add("http.overhead_us_per_request", self["http.roundtrip"]/1e3)
	if res.Kernel {
		lw.add("reach.kernel_us", by["reach.kernel"]/1e3)
	} else {
		lw.add("reach.fallback_us", by["reach.fallback"]/1e3)
	}
	return total, nil
}

// mark is the index the next recorded span will get.
func (lw *layerWalk) mark() int { return lw.rec.Load().len() }

// opTotals sums the spans recorded since index first — one op's — by
// name: total duration and self time, in ns.
func (lw *layerWalk) opTotals(first int) (by, self map[string]float64) {
	local := lw.rec.Load().snapshot(first)
	for i := range local { // parents index the whole recording
		if local[i].Parent >= 0 {
			local[i].Parent -= first
		}
	}
	by, self = map[string]float64{}, map[string]float64{}
	for i, st := range selfTimes(local) {
		by[local[i].Name] += float64(local[i].End - local[i].Start)
		self[local[i].Name] += float64(st)
	}
	return by, self
}

// search is one product search of a plan: ϕ over a label pattern, all
// pairs or seeded at one node.
func (lw *layerWalk) search(id, parent int, rec core.Recurse, seeds []graph.NodeID) (*pathset.Set, []int, bool) {
	re, ok := opt.LabelPattern(rec.In)
	if !ok || rec.Dir == core.Backward {
		return nil, nil, false
	}
	var nfa *automaton.NFA
	var out *pathset.Set
	var err error
	comp := lw.span(id, "automaton.compile", parent, func() {
		nfa = automaton.Build(rpq.Plus{In: re})
		nfa.Compile(lw.g)
	})
	srch := lw.span(id, "automaton.search", parent, func() {
		t := time.Now()
		out, err = automaton.EvalWithOptions(lw.g, nfa, rec.Sem, lw.lim, automaton.EvalOptions{Workers: lw.workers, Seeds: seeds})
		lw.opSearchNS += float64(time.Since(t))
	})
	if err != nil {
		return nil, nil, false
	}
	lw.opSearchOut += float64(out.Len())
	add := lw.span(id, "pathset.add", parent, func() {
		fresh := pathset.New(out.Len())
		for _, p := range out.Paths() {
			fresh.Add(p)
		}
	})
	lw.rec.Load().adopt(srch, []int{add})
	return out, []int{comp, srch}, true
}

// decompose evaluates plan the way the engine does, one exported layer
// call per operator, each in a span under parent. ok is false for a plan
// shape it does not know; the op is then measured as engine.eval only.
func (lw *layerWalk) decompose(id, parent int, x core.PathExpr, seedKey string) (*pathset.Set, []int, bool) {
	switch x := x.(type) {
	case core.Recurse:
		return lw.search(id, parent, x, nil)
	case core.Select:
		rec, isRec := x.In.(core.Recurse)
		first, last, rest := opt.SplitByEndpoint(x.Cond)
		n, found := lw.g.NodeByKey(seedKey)
		if !isRec || len(first) == 0 || len(last)+len(rest) > 0 || !found {
			return nil, nil, false
		}
		return lw.search(id, parent, rec, []graph.NodeID{n.ID})
	case core.Union:
		l, lk, ok := lw.decompose(id, parent, x.L, seedKey)
		if !ok {
			return nil, nil, false
		}
		r, rk, ok := lw.decompose(id, parent, x.R, seedKey)
		if !ok {
			return nil, nil, false
		}
		var out *pathset.Set
		u := lw.span(id, "core.union", parent, func() { out = core.EvalUnion(l, r) })
		return out, append(append(lk, rk...), u), true
	case core.Project:
		ss, kids, ok := lw.decomposeSpace(id, parent, x.In, seedKey)
		if !ok {
			return nil, nil, false
		}
		var out *pathset.Set
		p := lw.span(id, "core.project", parent, func() { out = core.EvalProject(x.Parts, x.Groups, x.Paths, ss) })
		return out, append(kids, p), true
	default:
		return nil, nil, false
	}
}

func (lw *layerWalk) decomposeSpace(id, parent int, x core.SpaceExpr, seedKey string) (*core.SolutionSpace, []int, bool) {
	switch x := x.(type) {
	case core.GroupBy:
		in, kids, ok := lw.decompose(id, parent, x.In, seedKey)
		if !ok {
			return nil, nil, false
		}
		var ss *core.SolutionSpace
		g := lw.span(id, "core.groupby", parent, func() { ss = core.EvalGroupBy(x.Key, in) })
		return ss, append(kids, g), true
	case core.OrderBy:
		in, kids, ok := lw.decomposeSpace(id, parent, x.In, seedKey)
		if !ok {
			return nil, nil, false
		}
		var ss *core.SolutionSpace
		o := lw.span(id, "core.orderby", parent, func() { ss = core.EvalOrderBy(x.Key, in) })
		return ss, append(kids, o), true
	default:
		return nil, nil, false
	}
}

// measureParallel repeats the op's searches with nproc workers, outside
// the span tree: automaton.search_par_ms against automaton.search_ms is
// the parallel speed-up, base one worker.
func (lw *layerWalk) measureParallel(id int, plan core.PathExpr, seedKey string) {
	traced := lw.rec.Swap(nil)
	lw.workers, lw.opSearchNS = runtime.GOMAXPROCS(0), 0
	lw.decompose(id, -1, plan, seedKey)
	lw.add("automaton.search_par_ms", lw.opSearchNS/1e6)
	lw.rec.Store(traced)
	lw.workers = 1
}

// measureMerge times pathset.Merge of the result cut into nproc shards,
// which is how a sharded search's output is assembled.
func (lw *layerWalk) measureMerge(result *pathset.Set) {
	n, k := result.Len(), runtime.GOMAXPROCS(0)
	if n == 0 {
		return
	}
	var shards []*pathset.Set
	for lo, per := 0, (n+k-1)/k; lo < n; lo += per {
		shards = append(shards, pathset.FromOrderedDisjoint([][]path.Path{result.Paths()[lo:min(lo+per, n)]}))
	}
	t := time.Now()
	pathset.Merge(shards...)
	lw.add("pathset.merge_ns_per_path", float64(time.Since(t))/float64(n))
}

// serve calls the walk's service in process.
func (lw *layerWalk) serve(method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	t := time.Now()
	lw.e.svc.ServeHTTP(rr, req)
	return rr, time.Since(t)
}

// inProcess runs one query through Server.ServeHTTP into a
// ResponseRecorder: the POST, then every page.
type inProcess struct {
	cached      bool
	post, next  time.Duration
	pages       int
	paths       int
	pathBytes   int
	nextMallocs uint64
}

func (lw *layerWalk) inProcessQuery(text string, noCache bool) (inProcess, error) {
	var r inProcess
	body, _ := json.Marshal(queryBody{Query: text, NoCache: noCache})
	rr, d := lw.serve(http.MethodPost, "/query", body)
	var qr struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &qr); err != nil || rr.Code != http.StatusCreated {
		return r, fmt.Errorf("in-process POST /query %q: status %d: %s", text, rr.Code, rr.Body)
	}
	r.cached, r.post = qr.Cached, d
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for done := false; !done; {
		rr, d := lw.serve(http.MethodGet, "/query/"+qr.ID+"/next", nil)
		if rr.Code != http.StatusOK {
			return r, fmt.Errorf("in-process GET next of %q: status %d: %s", text, rr.Code, rr.Body)
		}
		page := rr.Body.Bytes()
		at := bytes.LastIndex(bytes.TrimSuffix(page, []byte("\n")), []byte("\n")) + 1 // start of the trailer line
		r.next += d
		r.pages++
		r.paths += bytes.Count(page[:at], []byte("\n"))
		r.pathBytes += at
		done = bytes.Contains(page[at:], []byte(`"done":true`))
	}
	runtime.ReadMemStats(&m1)
	r.nextMallocs = m1.Mallocs - m0.Mallocs
	return r, nil
}

// measureServer makes sure q's result is in the service's result cache
// and then measures the service alone, in process: on a cache hit POST
// /query evaluates nothing and /next is encode + write only. wasCached
// reports whether the result was there already, left by the timed phase.
func (lw *layerWalk) measureServer(q queryOp) (wasCached bool, err error) {
	var hit inProcess
	for try := 0; ; try++ {
		r, err := lw.inProcessQuery(q.Text, false)
		if err != nil {
			return false, err
		}
		if r.cached {
			hit, wasCached = r, try == 0
			break
		}
		if try == 50 {
			return false, fmt.Errorf("layer walk: %s: result never reached the result cache", q.Text)
		}
		time.Sleep(time.Millisecond) // the completion watcher admits it asynchronously
	}
	lw.add("server.post_us", us(hit.post))
	lw.add("server.next_us_per_page", us(hit.next)/float64(hit.pages))
	if hit.paths > 0 {
		lw.add("server.encode_ns_per_path", float64(hit.next)/float64(hit.paths))
		lw.add("server.bytes_per_path", float64(hit.pathBytes)/float64(hit.paths))
		lw.add("server.allocs_per_path", float64(hit.nextMallocs)/float64(hit.paths))
	}
	return wasCached, nil
}

// measureAllocs counts allocations of one evaluation in the engine alone
// and of one uncached query through the service in process.
func (lw *layerWalk) measureAllocs(q queryOp, plan core.PathExpr) {
	eng := lw.newEngine()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng.EvalPaths(plan)
	runtime.ReadMemStats(&m1)
	lw.add("engine.allocs_per_query", float64(m1.Mallocs-m0.Mallocs))
	lw.add("engine.bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc))
	runtime.ReadMemStats(&m0)
	_, err := lw.inProcessQuery(q.Text, true)
	runtime.ReadMemStats(&m1)
	if err == nil {
		lw.add("server.allocs_per_query", float64(m1.Mallocs-m0.Mallocs))
	}
}

// obsOverhead replays query ops over loopback, uncached, with and without
// the program's own per-query tracing.
func (lw *layerWalk) obsOverhead(ops []walkOp) error {
	var plain, traced time.Duration
	n := 0
	for _, op := range ops {
		if op.isReach || n == traceSample {
			continue
		}
		n++
		for _, trace := range []bool{false, true, true, false} { // ABBA, so drift cancels
			res, err := lw.c.query(lw.e.pools.Queries[op.idx].Text, true, trace)
			if err != nil {
				return err
			}
			if trace {
				traced += res.Total
			} else {
				plain += res.Total
			}
		}
	}
	lw.e.layers.set("obs.trace_overhead_pct", 100*ratio(float64(traced-plain), float64(plain)), n)
	return nil
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// RootNS is the summed duration of the ops' root spans; SelfNS the
	// summed self time per span name, roots ("op": the harness's own gaps)
	// included, so the values of SelfNS add up to RootNS. Trees rooted at
	// "offpath" (evaluations the service did not need) are in Spans only.
	RootNS int64            `json:"root_ns"`
	SelfNS map[string]int64 `json:"self_ns"`
	Spans  []span           `json:"spans"`
}

func (lw *layerWalk) writeTrace(rec *recorder, outDir string) error {
	tf := traceFile{Workload: lw.e.w.Name, Seed: lw.e.seed, SelfNS: map[string]int64{}, Spans: rec.snapshot(0)}
	onPath := make([]bool, len(tf.Spans)) // in an op's tree, not an offpath one
	for i, st := range selfTimes(tf.Spans) {
		sp := tf.Spans[i]
		if sp.Parent == -1 {
			onPath[i] = sp.Name == "op"
		} else {
			onPath[i] = onPath[sp.Parent] // parents are recorded before their children
		}
		if !onPath[i] {
			continue
		}
		tf.SelfNS[sp.Name] += st
		if sp.Parent == -1 {
			tf.RootNS += sp.End - sp.Start
		}
	}
	layers := map[string]float64{}
	work := 0.0 // everything but the harness's gaps
	for name, ns := range tf.SelfNS {
		layers[layerOf(name)] += float64(ns)
		if name != "op" {
			work += float64(ns)
		}
	}
	l := lw.e.layers
	n := len(lw.evaluates) // the walked query ops
	l.set("bench.share_delivery_pct", 100*ratio(layers["server"]+layers["http"], work), n)
	l.set("bench.share_search_pct", 100*ratio(layers["automaton"]+layers["core"]+layers["pathset"], work), n)
	fixed := layers["gql"] + layers["opt"] + layers["http"] +
		float64(tf.SelfNS["engine.eval"]+tf.SelfNS["engine.plan_hit"]+tf.SelfNS["server.post"])
	l.set("bench.share_fixed_pct", 100*ratio(fixed, work), n)

	f, err := os.Create(filepath.Join(outDir, "trace-"+lw.e.w.Name+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeProbes measures the write path's layers on stores of their own,
// over the generated graph and the same update stream as the writer.
func (e *env) storeProbes(outDir string) error {
	stream := make([]graph.Batch, 0, 64)
	for _, body := range e.wr.adds[:64] {
		b, err := graph.ReadBatchNDJSON(bytes.NewReader(body))
		if err != nil {
			return err
		}
		stream = append(stream, b)
	}
	apply := func(s *graph.Store) ([]float64, error) {
		var per []float64
		for _, b := range stream {
			t := time.Now()
			if _, err := s.Apply(b); err != nil {
				return nil, err
			}
			per = append(per, us(time.Since(t)))
		}
		return per, nil
	}
	l := e.layers

	plain := graph.NewStore(e.g, graph.StoreOptions{CompactThreshold: -1})
	defer plain.Close()
	per, err := apply(plain)
	if err != nil {
		return err
	}
	l.set("graph.apply_us_per_batch", median(per), len(per))
	// Read cost through the un-compacted delta against the same state
	// sealed: the reader queries, straight on the engine.
	read := func() (time.Duration, error) {
		eng := engine.New(plain.Graph(), engine.Options{Limits: e.w.limits(), Parallelism: 1})
		t := time.Now()
		for _, q := range e.pools.Queries[:min(32, len(e.pools.Queries))] {
			x, err := compile(q.Text)
			if err != nil {
				return 0, err
			}
			if _, err := eng.Run(x); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	}
	overlay, err := read()
	if err != nil {
		return err
	}
	t := time.Now()
	if err := plain.Compact(); err != nil {
		return err
	}
	l.set("graph.compact_ms", ms(time.Since(t)), 1)
	sealed, err := read()
	if err != nil {
		return err
	}
	l.set("graph.overlay_read_ratio", ratio(float64(overlay), float64(sealed)), 32)

	dir, err := os.MkdirTemp(outDir, "wal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	durable, err := graph.OpenDurable(dir, e.g, graph.StoreOptions{CompactThreshold: -1})
	if err != nil {
		return err
	}
	defer durable.Close()
	if per, err = apply(durable); err != nil {
		return err
	}
	l.set("graph.apply_durable_us_per_batch", median(per), len(per))
	_, walBytes, _ := durable.WALStats()
	ops, bodyBytes := 0, 0
	for i, b := range stream {
		ops += len(b.Ops)
		bodyBytes += len(e.wr.adds[i])
	}
	l.set("graph.wal_bytes_per_op", float64(walBytes)/float64(ops), ops)
	l.set("graph.wal_write_amp", float64(walBytes)/float64(bodyBytes), ops)
	t = time.Now()
	if err := durable.Checkpoint(); err != nil {
		return err
	}
	l.set("graph.checkpoint_ms", ms(time.Since(t)), 1)
	return nil
}
