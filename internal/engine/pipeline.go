package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pathalgebra/internal/core"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// selector is a selector pipeline π(#P,#G,#A)(τθk(…τθ1(γψ(S))…)) read as
// one operator. A τ chain ranks like one τ over the union of its keys:
// each τ sets the ranks its key names to values of the space alone —
// MinL(P), MinL(G) or Len(p) (Table 6) — and carries the others over, so
// a level's rank is its Table 6 value when some τ names it and 1 when
// none does.
type selector struct {
	parts, groups, paths core.Count
	group                core.GroupKey
	order                core.OrderKey
}

// pipelineOf reads the selector of the π node n, whose operand is a τ
// chain ending in γ, and returns it with γ's operand.
func pipelineOf(x core.Project, n *opt.Node) (selector, *opt.Node, error) {
	sel := selector{parts: x.Parts, groups: x.Groups, paths: x.Paths}
	for m := n.In[0]; ; m = m.In[0] {
		switch s := m.Space.(type) {
		case core.OrderBy:
			sel.order |= s.Key
		case core.GroupBy:
			sel.group = s.Key
			return sel, m.In[0], nil
		case nil:
			return sel, nil, fmt.Errorf("engine: nil space expression")
		default:
			return sel, nil, fmt.Errorf("engine: unsupported space expression %T", s)
		}
	}
}

// project evaluates the pipeline over in in one pass over positions, with
// core.EvalProject(core.EvalOrderBy(core.EvalGroupBy(in))) as its oracle:
// the same paths in the same order. Partitions and groups are numbered
// by first appearance, as γ builds them; each level is stably sorted
// only where its rank varies, and truncated to its bound per
// Algorithm 1. The survivors are distinct, since in is a set, so the
// output is built without hashing. It also returns the number of
// partitions and groups of the space.
func (sel selector) project(in *pathset.Set) (*pathset.Set, int, int) {
	ps := in.Paths()
	if len(ps) == 0 {
		return pathset.FromDistinct(nil), 0, 0
	}
	byLen := sel.group&core.GroupLength != 0

	// The lengths every level keys or ranks by, read once in order.
	lens := make([]int32, len(ps))
	maxLen := int32(0)
	for i, p := range ps {
		lens[i] = int32(p.Len())
		maxLen = max(maxLen, lens[i])
	}

	// Partitions: ids by first appearance, then the positions of each.
	pid, parts := partitionIDs(ps, sel.group)
	partPos, partOff := csr(pid, parts)

	// Groups: without Length each partition is one group. With it, a
	// partition's groups are numbered by first appearance among its
	// paths, consecutively, so partition p owns groups
	// firstGroup[p]..firstGroup[p+1]-1.
	groups := parts
	groupPos, groupOff, firstGroup := partPos, partOff, []int32(nil)
	if byLen {
		gid := pid // pid is not read again; reuse it for group ids
		firstGroup = make([]int32, parts+1)
		slot := make([]int32, maxLen+1)
		for i := range slot {
			slot[i] = -1
		}
		next := int32(0)
		for p := 0; p < parts; p++ {
			firstGroup[p] = next
			at := partPos[partOff[p]:partOff[p+1]]
			for _, i := range at {
				l := lens[i]
				if slot[l] < 0 {
					slot[l] = next
					next++
				}
				gid[i] = slot[l]
			}
			for _, i := range at {
				slot[lens[i]] = -1
			}
		}
		firstGroup[parts] = next
		groups = int(next)
		groupPos, groupOff = csr(gid, groups)
	}
	groupsOf := func(p int32) (lo, hi int32) {
		if firstGroup == nil {
			return p, p + 1
		}
		return firstGroup[p], firstGroup[p+1]
	}

	// Ranks per Table 6: MinL(G) and MinL(P) where τ asks for them.
	var minG, minP []int32
	if sel.order&(core.OrderGroup|core.OrderPartition) != 0 {
		minG = make([]int32, groups)
		for g := range minG {
			m := lens[groupPos[groupOff[g]]]
			for _, i := range groupPos[groupOff[g]+1 : groupOff[g+1]] {
				m = min(m, lens[i])
			}
			minG[g] = m
		}
	}
	if sel.order&core.OrderPartition != 0 {
		minP = make([]int32, parts)
		for p := range minP {
			lo, hi := groupsOf(int32(p))
			minP[p] = slices.Min(minG[lo:hi])
		}
	}

	// π: partitions, then each one's groups, then each group's paths, in
	// rank order, truncated to the bounds. What survives of group g is a
	// prefix of its positions, sorted in place.
	minPOf := func(p int32) int { return int(minP[p]) }
	minGOf := func(g int32) int { return int(minG[g]) }
	lenOf := func(i int32) int { return int(lens[i]) }
	seqP := seq(parts)
	if minP != nil {
		sortByRank(seqP, minPOf, sel.parts.Desc)
	}
	kept := make([]int32, 0, 2*groups) // (group, count) pairs in output order
	var seqG []int32
	total := 0
	for _, p := range seqP[:sel.parts.Limit(parts)] {
		lo, hi := groupsOf(p)
		seqG = seqG[:0]
		for g := lo; g < hi; g++ {
			seqG = append(seqG, g)
		}
		if sel.order&core.OrderGroup != 0 {
			sortByRank(seqG, minGOf, sel.groups.Desc)
		}
		for _, g := range seqG[:sel.groups.Limit(len(seqG))] {
			at := groupPos[groupOff[g]:groupOff[g+1]]
			if sel.order&core.OrderPath != 0 {
				sortByRank(at, lenOf, sel.paths.Desc)
			}
			k := sel.paths.Limit(len(at))
			kept = append(kept, g, int32(k))
			total += k
		}
	}
	res := make([]path.Path, 0, total)
	for j := 0; j < len(kept); j += 2 {
		g, k := kept[j], kept[j+1]
		for _, i := range groupPos[groupOff[g] : groupOff[g]+k] {
			res = append(res, ps[i])
		}
	}
	return pathset.FromDistinct(res), parts, groups
}

// partitionIDs numbers the partitions key induces on ps by first
// appearance and returns each path's partition id with their count. The
// partition of a path is its (First, Last) pair, each part kept only if
// key selects it. Where the pairs' bounding box has at most four slots
// per path, as on all-pairs queries over a few hundred nodes, a dense
// table over the box numbers them; elsewhere, as on a seeded query whose
// targets span the graph, a map does.
func partitionIDs(ps []path.Path, key core.GroupKey) (pid []int32, parts int) {
	pid = make([]int32, len(ps))
	if key&(core.GroupSource|core.GroupTarget) == 0 {
		return pid, 1
	}
	first, last := make([]uint32, len(ps)), make([]uint32, len(ps))
	loF, loL := uint32(math.MaxUint32), uint32(math.MaxUint32)
	var hiF, hiL uint32
	for i, p := range ps {
		if key&core.GroupSource != 0 {
			first[i] = uint32(p.First())
		}
		if key&core.GroupTarget != 0 {
			last[i] = uint32(p.Last())
		}
		loF, hiF = min(loF, first[i]), max(hiF, first[i])
		loL, hiL = min(loL, last[i]), max(hiL, last[i])
	}
	if w, h := uint64(hiF-loF)+1, uint64(hiL-loL)+1; w*h <= 4*uint64(len(ps)) {
		slot := make([]int32, w*h) // partition id + 1; 0 while unseen
		for i := range ps {
			s := &slot[uint64(first[i]-loF)*h+uint64(last[i]-loL)]
			if *s == 0 {
				parts++
				*s = int32(parts)
			}
			pid[i] = *s - 1
		}
		return pid, parts
	}
	seen := make(map[uint64]int32, len(ps))
	for i := range ps {
		k := uint64(first[i])<<32 | uint64(last[i])
		id, ok := seen[k]
		if !ok {
			id = int32(len(seen))
			seen[k] = id
		}
		pid[i] = id
	}
	return pid, len(seen)
}

// csr lists the positions of each id in ids, ids in 0..k-1: positions of
// id j are pos[off[j]:off[j+1]], ascending.
func csr(ids []int32, k int) (pos, off []int32) {
	off = make([]int32, k+1)
	for _, id := range ids {
		off[id+1]++
	}
	for j := 1; j <= k; j++ {
		off[j] += off[j-1]
	}
	pos = make([]int32, len(ids))
	for i, id := range ids {
		pos[off[id]] = int32(i)
		off[id]++
	}
	// Filling advanced each off[j] to the start of j+1; shift them back.
	copy(off[1:], off[:k])
	off[0] = 0
	return pos, off
}

// seq returns 0..n-1.
func seq(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// sortByRank stably sorts ids by rank(id), descending when desc: ties
// keep their order either way, as core's projection does. It sorts only
// where the rank varies, since a stable sort of equal ranks is the
// identity.
func sortByRank(ids []int32, rank func(int32) int, desc bool) {
	if len(ids) < 2 || !slices.ContainsFunc(ids[1:], func(id int32) bool { return rank(id) != rank(ids[0]) }) {
		return
	}
	if desc {
		slices.SortStableFunc(ids, func(a, b int32) int { return cmp.Compare(rank(b), rank(a)) })
		return
	}
	slices.SortStableFunc(ids, func(a, b int32) int { return cmp.Compare(rank(a), rank(b)) })
}
