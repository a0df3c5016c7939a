package automaton

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
)

// Pair is one path-free answer: some accepted walk runs Src→Dst.
type Pair struct {
	Src, Dst graph.NodeID
}

// ReachOptions parameterizes Reach.
type ReachOptions struct {
	// Ctx, when cancellable, aborts the sweep at its next frontier item or
	// charge with the context's cause (see EvalOptions.Ctx).
	Ctx context.Context
	// Seeds are the sources, ascending and duplicate-free (like
	// EvalOptions.Seeds); nil means every live node, a non-nil empty list
	// none. Tombstoned sources reach nothing.
	Seeds []graph.NodeID
	// Targets restricts the destinations, ascending; nil means every node,
	// a non-nil empty list none.
	Targets []graph.NodeID
}

// Reach answers the path-free question about nfa's walks — which
// (source, destination) pairs an accepted walk of at most lim.MaxLen
// edges connects (<= 0: any length), and how short the shortest is —
// without materializing a path. It runs one product BFS per source and
// returns the pairs ascending by (Src, Dst) with each pair's minimal
// accepted walk length, parallel to pairs. That is exactly what erasing
// the bodies of the Walk or Shortest search's result leaves under the same
// MaxLen, since every prefix of a minimal walk is a shortest product walk.
//
// Every discovered product state charges ChargeWork of its depth and
// every pair ChargePath of its length, so Limits.MaxWork and MaxPaths
// bound Reach as they bound the search. A "bfs" span under Ctx's span
// reports the sources, the product states discovered and the pairs.
func Reach(g *graph.Graph, nfa *NFA, lim core.Limits, o ReachOptions) ([]Pair, []int32, error) {
	bud := core.NewBudget(lim)
	if o.Ctx != nil {
		stop := bud.Watch(o.Ctx)
		defer stop()
	}
	sp := obs.SpanFrom(o.Ctx).Start("bfs")
	defer sp.End()
	c := nfa.Compile(g)
	count := g.NumNodes()
	if o.Seeds != nil {
		count = len(o.Seeds)
	}
	bfs := bfsPool.Get().(*productBFS)
	defer bfsPool.Put(bfs)
	var (
		pairs           []Pair
		lengths         []int32
		sources, states int
	)
	for i := 0; i < count; i++ {
		src := seedAt(o.Seeds, i)
		if !g.NodeAlive(src) {
			continue
		}
		if err := bfs.run(g, c, []productState{{node: src}}, lim.MaxLen, bud, false); err != nil {
			return nil, nil, err
		}
		sources++
		states += 1 + len(bfs.touched) // the start and what it reached
		accepted := bfs.accepted(c.nfa, src)
		slices.SortFunc(accepted, func(a, b acceptance) int { return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.depth, b.depth)) })
		accepted = slices.CompactFunc(accepted, func(a, b acceptance) bool { return a.node == b.node })
		pairs, lengths = slices.Grow(pairs, len(accepted)), slices.Grow(lengths, len(accepted))
		for _, a := range accepted {
			if o.Targets != nil {
				if _, ok := slices.BinarySearch(o.Targets, a.node); !ok {
					continue
				}
			}
			if !bud.ChargePath(int(a.depth)) {
				return nil, nil, chargeErr(bud)
			}
			pairs = append(pairs, Pair{Src: src, Dst: a.node})
			lengths = append(lengths, a.depth)
		}
	}
	sp.SetInt("sources", int64(sources))
	sp.SetInt("states", int64(states))
	sp.SetInt("pairs", int64(len(pairs)))
	return pairs, lengths, nil
}

// bfsPool recycles sweeps across calls, so that the distance table sized
// by the graph is allocated once, not once per call.
var bfsPool = sync.Pool{New: func() any { return new(productBFS) }}

type productState struct {
	node  graph.NodeID
	state StateID
}

// acceptance is a node a sweep reached in an accepting state, at the
// depth it did.
type acceptance struct {
	node  graph.NodeID
	depth int32
}

// productBFS is the reusable storage of a breadth-first sweep over the
// product (node, NFA state) space. Reach and the quota's early stop run
// it from (src, 0); the quota's goal sweep runs it over the reversed
// automaton from the open targets (quotaState.sweep). Its distance table
// is sized by the graph once and cleared through the entries a sweep
// set, so a sweep costs what it reaches.
type productBFS struct {
	// dist[v*states+s] is the depth at which the last sweep discovered
	// (v, s), 0 when it did not. Starts are not marked: a start has a
	// distance only if a nonempty walk leads back to it, which for
	// (src, 0) none does — no transition enters state 0.
	dist           []int32
	touched        []int32 // the entries of dist the last sweep set, in discovery order
	states         int
	frontier, next []productState
	runs           []symbolScan
	acc            []acceptance // accepted's result
}

// run sweeps every product state reachable from starts by a nonempty walk
// of at most maxLen edges (<= 0: unbounded), over c's transitions and
// against the edges when back is set. Every start and every discovered
// state charges the work budget its depth, so Limits.MaxWork bounds the
// sweep.
func (p *productBFS) run(g *graph.Graph, c *CompiledNFA, starts []productState, maxLen int, bud *core.Budget, back bool) error {
	for _, i := range p.touched {
		p.dist[i] = 0
	}
	p.touched = p.touched[:0]
	p.states = c.nfa.NumStates()
	if n := g.NumNodes() * p.states; len(p.dist) < n {
		p.dist = make([]int32, n)
	}
	frontier, next := p.frontier[:0], p.next[:0]
	defer func() { p.frontier, p.next = frontier, next }()
	for _, ps := range starts {
		if !bud.ChargeWork(0) {
			return chargeErr(bud)
		}
		frontier = append(frontier, ps)
	}
	for depth := 1; len(frontier) > 0 && (maxLen <= 0 || depth <= maxLen); depth++ {
		next = next[:0]
		for _, ps := range frontier {
			// Poll cancellation once per frontier item: already-seen product
			// states charge nothing, so charges alone would not bound the
			// abort latency on dense graphs.
			if bud.Cancelled() {
				return chargeErr(bud)
			}
			var adj graph.Adjacency
			p.runs, adj = scanRuns(p.runs, g, c, ps.node, ps.state, back)
			for _, rs := range p.runs {
				for _, dst := range adj.Nbrs[rs.lo:rs.hi] {
					for _, q := range rs.targets {
						i := int(dst)*p.states + int(q)
						if p.dist[i] != 0 {
							continue
						}
						if !bud.ChargeWork(depth) {
							return chargeErr(bud)
						}
						p.dist[i] = int32(depth)
						p.touched = append(p.touched, int32(i))
						next = append(next, productState{node: dst, state: q})
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	return nil
}

// accepted lists, after a sweep from (src, 0), the nodes it reached in an
// accepting state of nfa with the depth it did, in discovery order: src
// first at depth 0 when nfa accepts the empty word, and a node reached in
// several accepting states once per state, first at its least depth. The
// slice is reused by the next call.
func (p *productBFS) accepted(nfa *NFA, src graph.NodeID) []acceptance {
	p.acc = p.acc[:0]
	if nfa.AcceptsEmpty() {
		p.acc = append(p.acc, acceptance{node: src})
	}
	for _, i := range p.touched {
		if nfa.Accepting(StateID(int(i) % p.states)) {
			p.acc = append(p.acc, acceptance{node: graph.NodeID(int(i) / p.states), depth: p.dist[i]})
		}
	}
	return p.acc
}
