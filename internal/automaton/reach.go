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
		if err := bfs.run(g, c, src, lim.MaxLen, bud, false); err != nil {
			return nil, nil, err
		}
		sources++
		states += bfs.states
		slices.SortFunc(bfs.accepted, func(a, b acceptance) int { return cmp.Compare(a.node, b.node) })
		pairs, lengths = slices.Grow(pairs, len(bfs.accepted)), slices.Grow(lengths, len(bfs.accepted))
		for _, a := range bfs.accepted {
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

// bfsPool recycles sweeps across calls, so that the bitset sized by the
// graph is allocated once, not once per call.
var bfsPool = sync.Pool{New: func() any { return new(productBFS) }}

type productState struct {
	node  graph.NodeID
	state StateID
}

// acceptance is a node a sweep reached in an accepting state, at the
// depth it first did: the node's minimal accepted walk length.
type acceptance struct {
	node  graph.NodeID
	depth int32
}

// productBFS is the reusable storage of one breadth-first sweep over the
// product (node, NFA state) space, which Reach and the quota's early stop
// both run. The visited set is one bitset with a column per NFA state and
// a last column marking a node accepted; it is sized by the graph once
// and cleared through the words a sweep set, so a sweep costs what it
// reaches.
type productBFS struct {
	seen           []uint64
	touched        []int // the words of seen a sweep made non-zero
	cols           int   // NFA states + 1
	frontier, next []productState
	runs           []symbolScan
	// accepted lists the nodes the last sweep accepted, in discovery
	// order; states counts the product states it discovered.
	accepted []acceptance
	states   int
}

// mark sets bit (v, col) and reports whether it was clear.
//
//pathalgebra:hotpath
func (p *productBFS) mark(v graph.NodeID, col int) bool {
	i := int(v)*p.cols + col
	w, bit := i>>6, uint64(1)<<(i&63)
	if p.seen[w]&bit != 0 {
		return false
	}
	if p.seen[w] == 0 {
		p.touched = append(p.touched, w)
	}
	p.seen[w] |= bit
	return true
}

// run sweeps every product state reachable from (src, 0) by a walk of at
// most maxLen edges (<= 0: unbounded), filling accepted. Every discovered
// state charges the work budget its node slots, so Limits.MaxWork bounds
// the sweep.
func (p *productBFS) run(g *graph.Graph, c *CompiledNFA, src graph.NodeID, maxLen int, bud *core.Budget, back bool) error {
	for _, w := range p.touched {
		p.seen[w] = 0
	}
	p.touched, p.accepted = p.touched[:0], p.accepted[:0]
	p.cols = c.nfa.NumStates() + 1
	if words := (g.NumNodes()*p.cols + 63) / 64; len(p.seen) < words {
		p.seen = make([]uint64, words)
	}
	accept := p.cols - 1
	p.mark(src, 0)
	p.states = 1
	if !bud.ChargeWork(0) {
		return chargeErr(bud)
	}
	if c.nfa.AcceptsEmpty() {
		p.mark(src, accept)
		p.accepted = append(p.accepted, acceptance{node: src})
	}
	frontier := append(p.frontier[:0], productState{node: src})
	next := p.next[:0]
	defer func() { p.frontier, p.next = frontier, next }()
	for depth := 1; len(frontier) > 0 && (maxLen <= 0 || depth <= maxLen); depth++ {
		next = next[:0]
		for _, ps := range frontier {
			// Poll cancellation once per frontier item: already-seen product
			// states charge nothing, so charges alone would not bound the
			// abort latency on dense graphs.
			if bud.Cancelled() {
				return chargeErr(bud)
			}
			p.runs = scanRuns(p.runs, g, c, ps.node, ps.state, back)
			for _, rs := range p.runs {
				for _, eid := range rs.edges {
					dst := stepNode(g, eid, back)
					for _, q := range rs.targets {
						if !p.mark(dst, int(q)) {
							continue
						}
						p.states++
						if !bud.ChargeWork(depth) {
							return chargeErr(bud)
						}
						if c.nfa.Accepting(q) && p.mark(dst, accept) {
							p.accepted = append(p.accepted, acceptance{node: dst, depth: int32(depth)})
						}
						next = append(next, productState{node: dst, state: q})
					}
				}
			}
		}
		frontier, next = next, frontier
	}
	return nil
}
