package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/pathset"
)

func compile(text string) (core.PathExpr, error) {
	q, err := gql.Parse(text)
	if err != nil {
		return nil, err
	}
	return gql.Compile(q)
}

// pathLine is the server's NDJSON path line, field for field.
type pathLine struct {
	Nodes []string `json:"nodes"`
	Edges []string `json:"edges"`
	Len   int      `json:"len"`
}

// digestOfSet renders set against g exactly as the server's pages do and
// digests the lines.
func digestOfSet(g *graph.Graph, set *pathset.Set) digest {
	var d digest
	for _, p := range set.Paths() {
		l := pathLine{Nodes: make([]string, len(p.Nodes())), Edges: make([]string, len(p.Edges())), Len: p.Len()}
		for i, n := range p.Nodes() {
			l.Nodes[i] = g.Node(n).Key
		}
		for i, e := range p.Edges() {
			l.Edges[i] = g.Edge(e).Key
		}
		line, _ := json.Marshal(l)
		d.add(line)
	}
	return d
}

func reachMode(name string) opt.ReachMode {
	for m := opt.ReachExists; m <= opt.ReachShortestLengths; m++ {
		if m.String() == name {
			return m
		}
	}
	panic("bench: unknown reach mode " + name)
}

// oracle answers requests with a direct, single-threaded engine over one
// sealed graph — the reference every served answer is checked against.
type oracle struct {
	g   *graph.Graph
	eng *engine.Engine
}

func newOracle(g *graph.Graph, maxLen int) *oracle {
	return &oracle{g: g, eng: engine.New(g, engine.Options{Limits: core.Limits{MaxLen: maxLen}, Parallelism: 1})}
}

func (o *oracle) query(text string) (digest, error) {
	x, err := compile(text)
	if err != nil {
		return digest{}, err
	}
	set, err := o.eng.Run(x)
	if err != nil {
		return digest{}, err
	}
	return digestOfSet(o.g, set), nil
}

func (o *oracle) reach(op reachOp) (digest, error) {
	x, err := compile(op.Text)
	if err != nil {
		return digest{}, err
	}
	res, err := o.eng.Reach(x, reachMode(op.Mode))
	if err != nil {
		return digest{}, err
	}
	a := reachAnswer{Exists: res.Exists, Count: res.Count}
	for i, p := range res.Pairs {
		rp := reachPair{Src: res.Graph.Node(p.Src).Key, Dst: res.Graph.Node(p.Dst).Key}
		if res.Lengths != nil {
			rp.Len = &res.Lengths[i]
		}
		a.Pairs = append(a.Pairs, rp)
	}
	d, _ := a.digestOf(nil)
	return d, nil
}

// verify checks every digest the clients saw against the oracle, nproc
// requests at a time. It returns the number of checks and the mismatches.
func (o *oracle) verify(p pools, seenQ, seenR map[int]digest) (int, []string) {
	type job struct {
		what string
		want func() (digest, error)
		got  digest
	}
	var jobs []job
	for _, i := range sortedKeys(seenQ) {
		q := p.Queries[i]
		jobs = append(jobs, job{q.Text, func() (digest, error) { return o.query(q.Text) }, seenQ[i]})
	}
	for _, i := range sortedKeys(seenR) {
		r := p.Reach[i]
		jobs = append(jobs, job{r.Mode + " " + r.Text, func() (digest, error) { return o.reach(r) }, seenR[i]})
	}
	var (
		mu       sync.Mutex
		failures []string
		wg       sync.WaitGroup
		next     = make(chan job)
	)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				want, err := j.want()
				if err == nil && want == j.got {
					continue
				}
				mu.Lock()
				failures = append(failures, fmt.Sprintf("oracle: %s: served %+v, engine %+v (err %v)", j.what, j.got, want, err))
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	sort.Strings(failures)
	return len(jobs), failures
}

func sortedKeys(m map[int]digest) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Reference-evaluator check. core.EvalExpr is the paper's definitional
// evaluator: it materialises the all-pairs closure before selecting, so it
// cannot run at the workloads' sizes. The sample is therefore evaluated on
// a graph of referencePersons persons from the same generator and seed:
// the chain is served answer = engine at full size (verify), engine =
// definition on the reference graph (here), same query templates.
const (
	referencePersons = 24
	referenceSample  = 32
)

func referenceCheck(w *workload, seed int64) (int, []string) {
	small := *w
	small.Persons, small.QueryPool, small.ReachPool = referencePersons, referenceSample, 0
	g, err := ldbc.Generate(small.graphConfig(seed))
	if err != nil {
		return 1, []string{"reference: " + err.Error()}
	}
	o := newOracle(g, w.MaxLen)
	var failures []string
	qs := buildPools(&small, seed, g).Queries
	for _, q := range qs {
		got, err := o.query(q.Text)
		if err != nil {
			failures = append(failures, fmt.Sprintf("reference: engine: %s: %v", q.Text, err))
			continue
		}
		ast, _ := gql.Parse(q.Text)
		x, _ := gql.Compile(ast)
		set, err := core.EvalExpr(g, x, core.Limits{MaxLen: w.MaxLen})
		if err != nil {
			failures = append(failures, fmt.Sprintf("reference: core.EvalExpr: %s: %v", q.Text, err))
			continue
		}
		want := digestOfSet(g, set)
		switch ast.Selector.Kind {
		case gql.SelAny, gql.SelAnyK, gql.SelAnyShortest, gql.SelShortestK:
			// These keep some k paths per endpoint pair; which ones is the
			// evaluator's choice, so only the number is comparable.
			want.Sum, got.Sum = 0, 0
		}
		if want != got {
			failures = append(failures, fmt.Sprintf("reference: %s: engine %+v, core.EvalExpr %+v", q.Text, got, want))
		}
	}
	return len(qs), failures
}
