package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// Limits bounds the evaluation of the recursive operator. The paper notes
// (§4) that ϕWalk on a cyclic graph never halts and that GQL copes by
// forcing a selector; this package copes by making every recursion run
// under an explicit budget.
type Limits struct {
	// MaxLen caps the edge length of generated paths; <= 0 means no cap.
	MaxLen int
	// MaxPaths caps the number of result paths; <= 0 selects
	// DefaultMaxPaths. Exceeding it aborts with ErrBudgetExceeded, so a
	// diverging ϕWalk fails loudly instead of hanging.
	MaxPaths int
	// MaxWork caps the total number of node slots materialized across all
	// result paths (Σ Len(p)+1); <= 0 selects DefaultMaxWork. A path
	// count alone is not enough: on a thin cycle the number of walks
	// grows only linearly with their length, so a runaway ϕWalk would
	// burn quadratic time and memory long before reaching MaxPaths.
	MaxWork int
}

// DefaultMaxPaths is the result-size safety net applied when Limits.
// MaxPaths is unset.
const DefaultMaxPaths = 1 << 20

// DefaultMaxWork is the materialization safety net applied when Limits.
// MaxWork is unset: at most ~16M node slots (≈128 MB of path data).
const DefaultMaxWork = 1 << 24

// ErrBudgetExceeded reports that an evaluation exceeded Limits.MaxPaths
// or Limits.MaxWork, under any semantics and whether or not MaxLen is
// set. For ϕWalk over a cyclic input without MaxLen it is the expected
// outcome; the paper's Table 3 marks such queries as having "an infinite
// number of solutions".
var ErrBudgetExceeded = errors.New("core: evaluation exceeded its budget (Limits.MaxPaths result paths or Limits.MaxWork work units)")

// budgetErr resolves the typed error behind a failed budget charge —
// the cancellation cause or ErrBudgetExceeded. A charge only fails
// over-limit or cancelled, so the fallback is defensive.
func budgetErr(b *Budget) error {
	if err := b.Err(); err != nil {
		return err
	}
	return ErrBudgetExceeded
}

func (l Limits) maxPaths() int {
	if l.MaxPaths <= 0 {
		return DefaultMaxPaths
	}
	return l.MaxPaths
}

func (l Limits) maxWork() int {
	if l.MaxWork <= 0 {
		return DefaultMaxWork
	}
	return l.MaxWork
}

func (l Limits) withinLen(p path.Path) bool {
	return l.MaxLen <= 0 || p.Len() <= l.MaxLen
}

// Quota is what a selector pipeline above a pattern recursion keeps per
// (source, target) endpoint pair: the first K paths in discovery order,
// or — ByLength — every path of the K smallest distinct lengths. The
// planner derives it from the π/τ/γ shape (opt.AnalyzeQuota) and the
// product search applies it while enumerating; like Direction it is an
// execution hint that never changes a plan's result. The zero value
// means no quota.
type Quota struct {
	K        int
	ByLength bool
}

// String renders the quota for explain output.
func (q Quota) String() string {
	if q.ByLength {
		return fmt.Sprintf("k=%d lengths per pair", q.K)
	}
	return fmt.Sprintf("k=%d per pair", q.K)
}

// EvalRecurse implements the recursive operator ϕSem(S) of Definition 4.1:
// the closure of S under path join, restricted to paths admitted by the
// semantics. The result always contains the admissible paths of S itself
// (the definition's base case ϕ0).
//
// Trail, Acyclic and Simple prune during expansion: every prefix of an
// admissible path is itself admissible (trails/acyclic trivially; a simple
// path only closes its cycle at the very last node, so proper prefixes are
// acyclic), hence frontier filtering loses no answers. Shortest uses a
// uniform-cost search; see evalShortest. Walk enumerates under Limits.
//
// The closure frontier lives in a prefix-sharing path.Arena: a join step
// appends only the joined base path's edges (sharing the whole left-hand
// prefix), admissibility is checked incrementally edge-by-edge against the
// parent chain instead of re-deriving a repetition map per candidate, and
// rejected or duplicate candidates roll back via arena truncation, so they
// cost no retained memory at all. Candidates materialize slices only on
// admission into the result set.
func EvalRecurse(sem Semantics, base *pathset.Set, lim Limits) (*pathset.Set, error) {
	return EvalRecurseBudget(sem, base, lim, NewBudget(lim))
}

// EvalRecurseCtx is EvalRecurse with cooperative cancellation: the
// recursion aborts promptly — at its next budget charge — once ctx is
// cancelled, returning ctx's cause (errors.Is-able as context.Canceled or
// context.DeadlineExceeded).
func EvalRecurseCtx(ctx context.Context, sem Semantics, base *pathset.Set, lim Limits) (*pathset.Set, error) {
	bud := NewBudget(lim)
	stop := bud.Watch(ctx)
	defer stop()
	return EvalRecurseBudget(sem, base, lim, bud)
}

// EvalRecurseBudget is EvalRecurse charging a caller-supplied budget,
// which may be shared with other operators or cancelled concurrently
// (Budget.Cancel / Budget.Watch). On a failed charge the returned error is
// bud.Err(): ErrBudgetExceeded or the cancellation cause.
func EvalRecurseBudget(sem Semantics, base *pathset.Set, lim Limits, bud *Budget) (*pathset.Set, error) {
	if sem == Shortest {
		return evalShortest(base, lim, bud)
	}
	admissible := base.Filter(sem.Admits).Filter(lim.withinLen)
	result := admissible.Clone()
	for _, p := range result.Paths() {
		if !bud.ChargePath(p.Len()) {
			return result, budgetErr(bud)
		}
	}

	basePaths := admissible.Paths()
	byFirst := indexByFirst(basePaths)

	arena := path.NewArena(2 * len(basePaths))
	frontier := make([]path.Ref, 0, len(basePaths))
	for _, p := range basePaths {
		// Seeding materializes a search state per base path; charge it as
		// work so MaxWork bounds the arena even before any extension.
		if !bud.ChargeWork(p.Len()) {
			return result, budgetErr(bud)
		}
		frontier = append(frontier, arena.FromPath(p))
	}
	// next reuses its storage across rounds via the swap below.
	next := make([]path.Ref, 0, len(frontier))
	for len(frontier) > 0 {
		next = next[:0]
		for _, r := range frontier {
			if bud.Cancelled() {
				return result, budgetErr(bud)
			}
			if sem == Simple && arena.PathLen(r) > 0 && arena.First(r) == arena.Last(r) {
				// A closed simple cycle cannot extend to another simple
				// path: its first node would repeat in the interior.
				continue
			}
			for _, bi := range byFirst[arena.Last(r)] {
				mark := arena.Len()
				q, ok := appendJoin(arena, r, basePaths[bi], sem, lim)
				if !ok {
					arena.TruncateTo(mark)
					continue
				}
				if result.AddArena(arena, q) {
					next = append(next, q)
					if !bud.ChargePath(arena.PathLen(q)) {
						return result, budgetErr(bud)
					}
				} else {
					arena.TruncateTo(mark)
				}
			}
		}
		frontier, next = next, frontier
	}
	return result, nil
}

// appendJoin computes r ◦ b in the arena, one edge at a time, aborting as
// soon as the growing path violates the semantics or the length bound.
// The incremental checks are exact because r is admissible (frontier
// invariant; closed Simple cycles are filtered by the caller): a trail
// stays a trail iff the appended edge is fresh, an acyclic path stays
// acyclic iff the appended node is fresh, and a simple path may repeat a
// node only by closing the cycle at its very last position. On !ok the
// caller truncates the arena back to its pre-call length.
func appendJoin(a *path.Arena, r path.Ref, b path.Path, sem Semantics, lim Limits) (path.Ref, bool) {
	if lim.MaxLen > 0 && a.PathLen(r)+b.Len() > lim.MaxLen {
		return r, false
	}
	edges, nodes := b.Edges(), b.Nodes()
	cur := r
	for i, e := range edges {
		dst := nodes[i+1]
		switch sem {
		case Trail:
			if a.ContainsEdge(cur, e) {
				return cur, false
			}
		case Acyclic:
			if a.ContainsNode(cur, dst) {
				return cur, false
			}
		case Simple:
			if a.ContainsNode(cur, dst) && (i != len(edges)-1 || dst != a.First(cur)) {
				return cur, false
			}
		}
		cur = a.Extend(cur, e, dst)
	}
	return cur, true
}

// indexByFirst indexes the positive-length paths of ps by their first node,
// as positions into ps (cheaper than bucketing path values). Zero-length
// paths are omitted: p ◦ (n) = p, so they never create new paths during
// expansion (they are already in the result via ϕ0).
func indexByFirst(ps []path.Path) map[graph.NodeID][]int32 {
	idx := make(map[graph.NodeID][]int32)
	for i, p := range ps {
		if p.Len() == 0 {
			continue
		}
		idx[p.First()] = append(idx[p.First()], int32(i))
	}
	return idx
}

type endpointPair struct {
	s, t graph.NodeID
}

// pathHeap orders paths by (length, canonical sequence) for uniform-cost
// search.
type pathHeap []path.Path

func (h pathHeap) Len() int { return len(h) }
func (h pathHeap) Less(i, j int) bool {
	return path.Compare(h[i], h[j]) < 0
}
func (h pathHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x any)   { *h = append(*h, x.(path.Path)) }
func (h *pathHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// evalShortest implements ϕShortest(S): for every endpoint pair (s, t)
// connected by the join-closure of S, all closure paths of minimal length.
//
// It runs a uniform-cost search over the closure. Because concatenation
// lengths are non-negative, every prefix (along base-path boundaries) of a
// minimal-length closure path is itself minimal for its own endpoint pair
// — the classical cut-and-paste argument — so paths that pop longer than
// the established minimum for their pair can be discarded without losing
// any shortest path. The search therefore terminates even on cyclic
// inputs: only minimal paths are ever extended, and for a fixed pair only
// finitely many walks share the minimal length.
func evalShortest(base *pathset.Set, lim Limits, bud *Budget) (*pathset.Set, error) {
	result := pathset.New(base.Len())
	basePaths := base.Paths()
	byFirst := indexByFirst(basePaths)

	h := &pathHeap{}
	visited := pathset.New(base.Len())
	for _, p := range base.Paths() {
		if lim.withinLen(p) && visited.Add(p) {
			// Each queued path is a materialized search state: charge it
			// as work so MaxWork bounds heap + visited-set growth.
			if !bud.ChargeWork(p.Len()) {
				return result, budgetErr(bud)
			}
			heap.Push(h, p)
		}
	}

	best := make(map[endpointPair]int)
	for h.Len() > 0 {
		if bud.Cancelled() {
			return result, budgetErr(bud)
		}
		p := heap.Pop(h).(path.Path)
		pair := endpointPair{p.First(), p.Last()}
		if b, known := best[pair]; known && p.Len() > b {
			continue // strictly longer than the minimum for this pair
		}
		best[pair] = p.Len()
		if result.Add(p) && !bud.ChargePath(p.Len()) {
			return result, budgetErr(bud)
		}
		for _, bi := range byFirst[p.Last()] {
			q := p.Concat(basePaths[bi])
			if lim.withinLen(q) && visited.Add(q) {
				// Concat materialized q and visited retains it; uncharged,
				// a cyclic closure could grow both past MaxWork unchecked.
				if !bud.ChargeWork(q.Len()) {
					return result, budgetErr(bud)
				}
				heap.Push(h, q)
			}
		}
	}
	return result, nil
}

// KleenePlus is a convenience wrapper for ϕSem(S): the "one or more"
// closure corresponding to a regular-expression +.
func KleenePlus(sem Semantics, base *pathset.Set, lim Limits) (*pathset.Set, error) {
	return EvalRecurse(sem, base, lim)
}

// KleeneStar computes ϕSem(S) ∪ Nodes(G): the "zero or more" closure
// corresponding to a regular-expression *, which the paper expresses as a
// union with the length-zero paths (Figure 4).
func KleeneStar(g *graph.Graph, sem Semantics, base *pathset.Set, lim Limits) (*pathset.Set, error) {
	plus, err := EvalRecurse(sem, base, lim)
	if err != nil {
		return plus, err
	}
	return EvalUnion(plus, EvalNodes(g)), nil
}

// CheckedRecurse evaluates ϕ and decorates budget errors with the operator
// rendering, for friendlier engine errors.
func CheckedRecurse(sem Semantics, base *pathset.Set, lim Limits) (*pathset.Set, error) {
	out, err := EvalRecurse(sem, base, lim)
	if err != nil {
		return out, fmt.Errorf("evaluating ϕ%s: %w", sem, err)
	}
	return out, nil
}
