package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
)

// workload is one traffic mix with its frozen size. The why of each is in
// BENCHMARK.json and bench/README.md.
type workload struct {
	Name string
	// Persons sizes the ldbc graph: Messages = 2×Persons, Knows 3, Likes
	// 2, CycleFraction 0.3 — the same ratios at every size.
	Persons int
	MaxLen  int
	// GraphSeed, when not 0, generates the graph from this seed whatever
	// --seed says. The all-pairs workloads set it: there the graph itself
	// is the query constant, and the number of paths it holds is the op
	// size the workload freezes. On the others --seed draws the graph too.
	GraphSeed int64
	// Chunk is the service's page size: the default 256 where answers are
	// 10²–10³ paths (with 1024, whether an answer needs one page or two
	// would split the latencies into two clusters with the median between
	// them), 1024 where they are 10⁴–10⁵.
	Chunk int
	// Clients is the closed-loop client count; 0 means nproc.
	Clients int
	// NoCache sends "no_cache":true, so every op evaluates.
	NoCache bool
	// Durable serves a graph.OpenDurable store and adds the writer client.
	Durable bool
	// Kernel builds the bitset index in set-up (it is used by /reach).
	Kernel bool
	// Zipf draws pool entries Zipf(1.1) by rank (see zipfOffset); otherwise clients cycle
	// through seeded permutations of the pool, so every entry is equally
	// frequent.
	Zipf bool
	// ReachShare is the share of reader ops that are POST /reach.
	ReachShare float64
	// ReachTail is the share of the timed phase, at its end, in which the
	// readers send only POST /reach (the writer keeps writing). Under
	// ingest a /reach can cost a hundred path queries, because each epoch
	// needs a new bitset index; mixed in at random it would decide how many
	// path queries a run completes.
	ReachTail float64
	// QueryPool and ReachPool are the numbers of distinct requests. They
	// bound the oracle's work: every distinct request seen is re-evaluated
	// once for checking.
	QueryPool, ReachPool int
	// Warmup is the untimed op count before the timed phase, sent by one
	// client (on the all-pairs workloads one pass over the pool, so every
	// result is evaluated once); WalkOps is the prefix of the op sequence
	// the traced layer walk replays.
	Warmup, WalkOps int
	Templates       []string
}

func (w *workload) clients() int {
	if w.Clients > 0 {
		return w.Clients
	}
	return runtime.GOMAXPROCS(0)
}

func (w *workload) graphConfig(seed int64) ldbc.Config {
	if w.GraphSeed != 0 {
		seed = w.GraphSeed
	}
	return ldbc.Config{
		Persons: w.Persons, Messages: 2 * w.Persons,
		KnowsPerPerson: 3, LikesPerPerson: 2, CycleFraction: 0.3, Seed: seed,
	}
}

// Ingest constants of live_ingest.
const (
	batchOps         = 32   // mutation ops per POST /ingest
	undoLag          = 8    // a batch is deleted this many batches later
	streamBatches    = 512  // distinct batches, reused once deleted
	compactThreshold = 2048 // delta records per compaction + checkpoint
)

var workloads = []*workload{
	{
		Name: "interactive", Persons: 7000, MaxLen: 6, Chunk: 256, Kernel: true, Zipf: true,
		ReachShare: 0.2, QueryPool: 256, ReachPool: 256, Warmup: 300, WalkOps: 120,
		Templates: seededTemplates,
	},
	{
		Name: "selectors", Persons: 50, MaxLen: 7, GraphSeed: 1, Chunk: 1024, Clients: 1, NoCache: true,
		QueryPool: len(allPairsSelectors), Warmup: len(allPairsSelectors), WalkOps: len(allPairsSelectors),
		Templates: allPairsSelectors,
	},
	{
		Name: "delivery", Persons: 500, MaxLen: 4, GraphSeed: 1, Chunk: 1024,
		QueryPool: len(deliveryQueries), Warmup: len(deliveryQueries), WalkOps: 2 * len(deliveryQueries),
		Templates: deliveryQueries,
	},
	{
		Name: "live_ingest", Persons: 7000, MaxLen: 6, Chunk: 256, Clients: 1, Durable: true, Kernel: true, Zipf: true,
		ReachTail: 0.15, QueryPool: 256, ReachPool: 64, Warmup: 200, WalkOps: 120,
		Templates: seededTemplates,
	},
	{
		Name: "scale", Persons: 150000, MaxLen: 6, Chunk: 256, NoCache: true,
		ReachShare: 0.1, QueryPool: 192, ReachPool: 24, Warmup: 16, WalkOps: 16,
		Templates: seededTemplates,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// The paper's Table 1 selectors and Table 2 restrictors, over the two
// patterns every worked example uses.
var (
	selectors   = []string{"ALL", "ANY SHORTEST", "ALL SHORTEST", "ANY", "ANY 2", "SHORTEST 2", "SHORTEST 2 GROUP"}
	restrictors = []string{"WALK", "TRAIL", "ACYCLIC", "SIMPLE"}
	// Two templates in three use the first pattern. The union compiles to
	// two recursions; on scale that is two seed scans instead of one, and
	// with an even split the latencies have two equal modes with the median
	// between them.
	patterns = []string{":Knows+", ":Knows+", "(:Knows+)|(:Likes/:Has_creator)+"}
)

// seededTemplates is selectors × restrictors × patterns from one person;
// %d is the person id.
var seededTemplates = func() []string {
	var out []string
	for _, p := range patterns {
		for _, r := range restrictors {
			for _, s := range selectors {
				out = append(out, "MATCH "+s+" "+r+" p = (?x:Person {id:%d})-["+p+"]->(?y)")
			}
		}
	}
	return out
}()

// allPairsSelectors are the Table 7 pipelines over every endpoint pair,
// plus one two-hop join. On 100 persons at MaxLen 6 each enumerates about
// 10⁵ paths and projects down to 10⁴–4·10⁴.
var allPairsSelectors = func() []string {
	var out []string
	for _, r := range []string{"WALK", "TRAIL", "ACYCLIC"} {
		for _, s := range []string{"ANY SHORTEST", "ALL SHORTEST", "SHORTEST 2 GROUP", "ANY 2"} {
			out = append(out, "MATCH "+s+" "+r+" p = (?x)-[:Knows+]->(?y)")
		}
	}
	return append(out, "MATCH WALK p = (?x)-[:Knows/:Knows]->(?y)")
}()

// deliveryQueries are three all-pairs results of one size (64k, 66k and
// 58k paths on the frozen graph), so that the workload's latencies form
// one cluster. With results of two sizes the median sits at the edge of
// the lower cluster, and a busy host moves it across the gap.
var deliveryQueries = []string{
	"MATCH TRAIL p = (?x)-[:Knows+]->(?y)",
	"MATCH ACYCLIC p = (?x)-[(:Knows+)|(:Likes/:Has_creator)+]->(?y)",
	"MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
}

// reachTemplates are kernel-eligible plans (opt.AnalyzeReach) crossed with
// the three path-free modes; every twentieth pool entry is the TRAIL one,
// which must enumerate, so reach.kernel_ratio is a measurement, not a
// constant.
var (
	reachTemplates = []string{
		"MATCH WALK p = (?x:Person {id:%d})-[:Knows+]->(?y)",
		"MATCH WALK p = (?x:Person {id:%d})-[(:Likes/:Has_creator)+]->(?y)",
		"MATCH ANY SHORTEST WALK p = (?x:Person {id:%d})-[:Knows+]->(?y)",
	}
	reachModes      = []string{"exists", "pairs", "shortest-lengths"}
	reachIneligible = "MATCH TRAIL p = (?x:Person {id:%d})-[:Knows+]->(?y)"
)

// queryOp is one distinct POST /query; SeedKey is the node key of the
// seeded person ("" for all-pairs), which the layer walk needs to call
// the search directly.
type queryOp struct {
	Text    string
	SeedKey string
}

type reachOp struct {
	Text string
	Mode string
}

// pools are the distinct requests of a run, derived from the seed.
type pools struct {
	Queries []queryOp
	Reach   []reachOp
}

func buildPools(w *workload, seed int64, g *graph.Graph) pools {
	rng := rand.New(rand.NewSource(seed ^ 0x706f6f6c)) // "pool"
	tmpl := w.Templates
	var ids []int
	if w.ReachPool > 0 || strings.Contains(tmpl[0], "%d") {
		ids = typicalPersons(g, w)
	}
	var p pools
	for i := 0; i < w.QueryPool; i++ {
		t := tmpl[i%len(tmpl)]
		if !strings.Contains(t, "%d") {
			p.Queries = append(p.Queries, queryOp{Text: t})
			continue
		}
		id := ids[rng.Intn(len(ids))]
		p.Queries = append(p.Queries, queryOp{Text: fmt.Sprintf(t, id), SeedKey: fmt.Sprintf("p%d", id)})
	}
	for i := 0; i < w.ReachPool; i++ {
		id := ids[rng.Intn(len(ids))]
		if i%20 == 19 {
			p.Reach = append(p.Reach, reachOp{Text: fmt.Sprintf(reachIneligible, id), Mode: "exists"})
			continue
		}
		p.Reach = append(p.Reach, reachOp{
			Text: fmt.Sprintf(reachTemplates[i%len(reachTemplates)], id),
			Mode: reachModes[i/len(reachTemplates)%len(reachModes)],
		})
	}
	return p
}

// typicalPersons lists the ids of the persons in the middle fifth by size
// of their neighbourhood, measured as the number of :Knows walks of up to
// MaxLen steps that start at them. Query ids are drawn from these: the
// answer to a seeded query is roughly that many paths, it varies fivefold
// between persons, and with ids drawn from everyone the sizes of the few
// hot answers decided a run's medians (query_p50_ms moved 17% between
// seeds).
func typicalPersons(g *graph.Graph, w *workload) []int {
	knows := g.SymbolOf(ldbc.LabelKnows)
	walks := make([]float64, w.Persons) // walks of up to k steps, k = 0 … MaxLen
	for range w.MaxLen {
		next := make([]float64, w.Persons)
		for i := range next { // ldbc adds the persons first: node i is p<i+1>
			for _, e := range g.OutWithSymbol(graph.NodeID(i), knows) {
				_, dst := g.Endpoints(e)
				next[i] += 1 + walks[dst]
			}
		}
		walks = next
	}
	ids := make([]int, w.Persons)
	for i := range ids {
		ids[i] = i + 1
	}
	sort.SliceStable(ids, func(a, b int) bool { return walks[ids[a]-1] < walks[ids[b]-1] })
	return ids[2*len(ids)/5 : max(3*len(ids)/5, 2*len(ids)/5+1)]
}

// zipfOffset is v in P(rank k) ∝ (v+k)^-1.1. At 8 the hottest of 256
// entries gets 4% of the requests and the result LRU's 128 entries about
// 75%; at 1 one entry would get 18% and its answer size would set the
// run's medians.
const zipfOffset = 8

// picker draws pool indexes for one client: Zipf(1.1) over ranks, or
// seeded permutations of the whole pool back to back.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	at   int
	n    int
}

func newPicker(rng *rand.Rand, n int, zipf bool) *picker {
	p := &picker{rng: rng, n: n}
	if zipf && n > 1 {
		p.zipf = rand.NewZipf(rng, 1.1, zipfOffset, uint64(n-1))
	}
	return p
}

func (p *picker) next() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	if p.at == len(p.perm) {
		p.perm, p.at = p.rng.Perm(p.n), 0
	}
	p.at++
	return p.perm[p.at-1]
}

// Phases draw from different random streams, so the warm-up is not a
// rehearsal of the timed ops.
const (
	phaseWarmup int64 = 1
	phaseTimed  int64 = 2
	phaseTail   int64 = 3
)

// opGen is one client's op sequence: which pool entry to request next,
// and whether from the reach pool.
type opGen struct {
	rng        *rand.Rand
	q, r       *picker
	reachShare float64
}

func (e *env) opGen(phase int64, client int) *opGen {
	rng := rand.New(rand.NewSource(e.seed<<16 ^ phase<<8 ^ int64(client)))
	g := &opGen{rng: rng, q: newPicker(rng, len(e.pools.Queries), e.w.Zipf)}
	if len(e.pools.Reach) > 0 {
		g.r, g.reachShare = newPicker(rng, len(e.pools.Reach), e.w.Zipf), e.w.ReachShare
		if phase == phaseTail {
			g.reachShare = 1
		}
	}
	return g
}

func (g *opGen) next() (isReach bool, idx int) {
	if g.r != nil && g.rng.Float64() < g.reachShare {
		return true, g.r.next()
	}
	return false, g.q.next()
}
