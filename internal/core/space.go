package core

import (
	"fmt"
	"sort"
	"strings"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
)

// GroupKey is the parameter ψ of the group-by operator γψ: any subset of
// {Source, Target, Length} (§5.1). Source and Target induce partitions;
// Length induces groups within each partition (Table 4).
type GroupKey uint8

const (
	// GroupSource partitions paths by First(p).
	GroupSource GroupKey = 1 << iota
	// GroupTarget partitions paths by Last(p).
	GroupTarget
	// GroupLength groups paths within a partition by Len(p).
	GroupLength

	// GroupNone is γ∅: a single partition containing a single group.
	GroupNone GroupKey = 0
	// GroupST is the common endpoints key γST.
	GroupST = GroupSource | GroupTarget
	// GroupSTL is the full key γSTL.
	GroupSTL = GroupSource | GroupTarget | GroupLength
)

// String renders the key in the paper's subscript notation (γST → "ST").
func (k GroupKey) String() string {
	if k == GroupNone {
		return "∅"
	}
	var sb strings.Builder
	if k&GroupSource != 0 {
		sb.WriteByte('S')
	}
	if k&GroupTarget != 0 {
		sb.WriteByte('T')
	}
	if k&GroupLength != 0 {
		sb.WriteByte('L')
	}
	return sb.String()
}

// Words renders the key as GQL GROUP BY keywords (§7.1).
func (k GroupKey) Words() string {
	if k == GroupNone {
		return "None"
	}
	var parts []string
	if k&GroupSource != 0 {
		parts = append(parts, "Source")
	}
	if k&GroupTarget != 0 {
		parts = append(parts, "Target")
	}
	if k&GroupLength != 0 {
		parts = append(parts, "Length")
	}
	return strings.Join(parts, " ")
}

// AllGroupKeys lists the 8 group-by variants in the paper's Table 4 order.
func AllGroupKeys() []GroupKey {
	return []GroupKey{
		GroupNone, GroupSource, GroupTarget, GroupLength,
		GroupST, GroupSource | GroupLength, GroupTarget | GroupLength, GroupSTL,
	}
}

// OrderKey is the parameter θ of the order-by operator τθ: any non-empty
// subset of {Partition, Group, Path} (§5.2; the paper writes Path as "A").
type OrderKey uint8

const (
	// OrderPartition re-ranks partitions by MinL(P).
	OrderPartition OrderKey = 1 << iota
	// OrderGroup re-ranks groups by MinL(G).
	OrderGroup
	// OrderPath re-ranks paths by Len(p).
	OrderPath
)

// String renders the key in the paper's subscript notation (τPG → "PG").
func (k OrderKey) String() string {
	var sb strings.Builder
	if k&OrderPartition != 0 {
		sb.WriteByte('P')
	}
	if k&OrderGroup != 0 {
		sb.WriteByte('G')
	}
	if k&OrderPath != 0 {
		sb.WriteByte('A')
	}
	if sb.Len() == 0 {
		return "∅"
	}
	return sb.String()
}

// Words renders the key as GQL ORDER BY keywords (§7.1).
func (k OrderKey) Words() string {
	var parts []string
	if k&OrderPartition != 0 {
		parts = append(parts, "Partition")
	}
	if k&OrderGroup != 0 {
		parts = append(parts, "Group")
	}
	if k&OrderPath != 0 {
		parts = append(parts, "Path")
	}
	if len(parts) == 0 {
		return "None"
	}
	return strings.Join(parts, " ")
}

// AllOrderKeys lists the 7 non-empty order-by variants in Table 6 order.
func AllOrderKeys() []OrderKey {
	return []OrderKey{
		OrderPartition, OrderGroup, OrderPath,
		OrderPartition | OrderGroup, OrderPartition | OrderPath,
		OrderGroup | OrderPath, OrderPartition | OrderGroup | OrderPath,
	}
}

// RankedPath is a path together with its △ rank inside its group.
type RankedPath struct {
	Path path.Path
	Rank int
}

// Group is a group of paths inside a partition (Definition 5.1). Length is
// the group key when the group-by key includes Length; otherwise it is -1.
type Group struct {
	Length int
	Paths  []RankedPath
	Rank   int // △(G)
}

// MinLen implements MinL(G): the length of the shortest path in the group.
func (g *Group) MinLen() int {
	m := -1
	for _, rp := range g.Paths {
		if m < 0 || rp.Path.Len() < m {
			m = rp.Path.Len()
		}
	}
	return m
}

// Partition is a set of groups keyed by source and/or target endpoints
// (whichever the group-by key selects; unused endpoints are 0 with
// HasSource/HasTarget false).
type Partition struct {
	Source    graph.NodeID
	Target    graph.NodeID
	HasSource bool
	HasTarget bool
	Groups    []*Group
	Rank      int // △(P)
}

// MinLen implements MinL(P): the minimum MinL over the partition's groups.
func (p *Partition) MinLen() int {
	m := -1
	for _, g := range p.Groups {
		gm := g.MinLen()
		if m < 0 || (gm >= 0 && gm < m) {
			m = gm
		}
	}
	return m
}

// SolutionSpace is the secondary data structure of the extended algebra
// (Definition 5.1): paths organized into groups, groups into partitions,
// with △ ranks on paths, groups and partitions. After γ all ranks are 1
// ("no virtual order"); τ re-ranks per Table 6; π consumes ranks.
type SolutionSpace struct {
	Key        GroupKey
	Partitions []*Partition
}

// NumPaths returns the total number of paths across all groups.
func (ss *SolutionSpace) NumPaths() int {
	n := 0
	for _, p := range ss.Partitions {
		for _, g := range p.Groups {
			n += len(g.Paths)
		}
	}
	return n
}

// NumGroups returns the total number of groups across all partitions.
func (ss *SolutionSpace) NumGroups() int {
	n := 0
	for _, p := range ss.Partitions {
		n += len(p.Groups)
	}
	return n
}

type partitionKey struct {
	src, dst graph.NodeID
	hasS     bool
	hasT     bool
}

// EvalGroupBy implements γψ(S) (§5.1). Partitions appear in order of first
// contribution from S's iteration order; likewise groups within a
// partition and paths within a group. Every △ rank is initialized to 1,
// i.e. the space is unordered until τ runs.
func EvalGroupBy(key GroupKey, s *pathset.Set) *SolutionSpace {
	ss := &SolutionSpace{Key: key}
	partIdx := make(map[partitionKey]*Partition)
	for _, p := range s.Paths() {
		pk := partitionKey{hasS: key&GroupSource != 0, hasT: key&GroupTarget != 0}
		if pk.hasS {
			pk.src = p.First()
		}
		if pk.hasT {
			pk.dst = p.Last()
		}
		part, ok := partIdx[pk]
		if !ok {
			part = &Partition{
				Source:    pk.src,
				Target:    pk.dst,
				HasSource: pk.hasS,
				HasTarget: pk.hasT,
				Rank:      1,
			}
			partIdx[pk] = part
			ss.Partitions = append(ss.Partitions, part)
		}
		glen := -1
		if key&GroupLength != 0 {
			glen = p.Len()
		}
		var grp *Group
		for _, g := range part.Groups {
			if g.Length == glen {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &Group{Length: glen, Rank: 1}
			part.Groups = append(part.Groups, grp)
		}
		grp.Paths = append(grp.Paths, RankedPath{Path: p, Rank: 1})
	}
	return ss
}

// EvalOrderBy implements τθ(SS) (§5.2, Table 6). It returns a new space
// sharing path values but with fresh rank assignments: partitions get
// △′(P) = MinL(P) when θ includes Partition, groups get △′(G) = MinL(G)
// when θ includes Group, and paths get △′(p) = Len(p) when θ includes
// Path; all other ranks are carried over unchanged.
func EvalOrderBy(key OrderKey, ss *SolutionSpace) *SolutionSpace {
	out := &SolutionSpace{Key: ss.Key, Partitions: make([]*Partition, 0, len(ss.Partitions))}
	for _, p := range ss.Partitions {
		np := &Partition{
			Source: p.Source, Target: p.Target,
			HasSource: p.HasSource, HasTarget: p.HasTarget,
			Rank:   p.Rank,
			Groups: make([]*Group, 0, len(p.Groups)),
		}
		if key&OrderPartition != 0 {
			np.Rank = p.MinLen()
		}
		for _, g := range p.Groups {
			ng := &Group{Length: g.Length, Rank: g.Rank, Paths: make([]RankedPath, 0, len(g.Paths))}
			if key&OrderGroup != 0 {
				ng.Rank = g.MinLen()
			}
			for _, rp := range g.Paths {
				r := rp.Rank
				if key&OrderPath != 0 {
					r = rp.Path.Len()
				}
				ng.Paths = append(ng.Paths, RankedPath{Path: rp.Path, Rank: r})
			}
			np.Groups = append(np.Groups, ng)
		}
		out.Partitions = append(out.Partitions, np)
	}
	return out
}

// EvalProject implements π(#P,#G,#A)(SS) — Algorithm 1 of the paper. It
// stably sorts partitions, groups and paths by their △ ranks (ties keep
// the space's construction order, which makes "non-deterministic"
// selectors reproducible), truncates each level to its bound, and returns
// the surviving paths as a set.
func EvalProject(parts, groups, paths Count, ss *SolutionSpace) *pathset.Set {
	out := pathset.New(ss.NumPaths())

	seqP := make([]*Partition, len(ss.Partitions))
	copy(seqP, ss.Partitions)
	sortByRank(seqP, func(p *Partition) int { return p.Rank }, parts.Desc)

	maxP := parts.Limit(len(seqP))
	for i := 0; i < maxP; i++ {
		p := seqP[i]
		seqG := make([]*Group, len(p.Groups))
		copy(seqG, p.Groups)
		sortByRank(seqG, func(g *Group) int { return g.Rank }, groups.Desc)

		maxG := groups.Limit(len(seqG))
		for j := 0; j < maxG; j++ {
			g := seqG[j]
			seqS := make([]RankedPath, len(g.Paths))
			copy(seqS, g.Paths)
			sortByRank(seqS, func(rp RankedPath) int { return rp.Rank }, paths.Desc)

			maxS := paths.Limit(len(seqS))
			for k := 0; k < maxS; k++ {
				out.Add(seqS[k].Path)
			}
		}
	}
	return out
}

// sortByRank stably sorts elements by rank, ascending or descending. Ties
// keep construction order in both directions, so descending projection
// remains deterministic.
func sortByRank[T any](xs []T, rank func(T) int, desc bool) {
	sort.SliceStable(xs, func(i, j int) bool {
		if desc {
			return rank(xs[i]) > rank(xs[j])
		}
		return rank(xs[i]) < rank(xs[j])
	})
}

// Format renders the solution space as a table resembling the paper's
// Table 5: one row per path with its partition, group, MinL(P), MinL(G)
// and Len(p) columns.
func (ss *SolutionSpace) Format(g *graph.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-10s %-40s %-8s %-8s %-6s\n",
		"Partition", "Group", "Path", "MinL(P)", "MinL(G)", "Len(p)")
	for pi, p := range ss.Partitions {
		for gi, grp := range p.Groups {
			for _, rp := range grp.Paths {
				fmt.Fprintf(&sb, "%-10s %-10s %-40s %-8d %-8d %-6d\n",
					fmt.Sprintf("part%d", pi+1),
					fmt.Sprintf("group%d%d", pi+1, gi+1),
					rp.Path.Format(g),
					p.MinLen(), grp.MinLen(), rp.Path.Len())
			}
		}
	}
	return sb.String()
}
