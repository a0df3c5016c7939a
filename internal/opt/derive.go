package opt

import (
	"slices"

	"pathalgebra/internal/automaton"
	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/rpq"
)

// Node is one operator of a physical plan together with the properties
// Derive computed for it. Core expression trees are values without node
// identity, and core cannot hold rpq or automaton types, so the
// annotation is a parallel tree whose In mirrors each operator's
// operands.
type Node struct {
	// Path is a path-sorted operator with its subtree, Space a γ or τ.
	// Neither is set where the plan holds a nil expression.
	Path  core.PathExpr
	Space core.SpaceExpr
	// In lists the operand nodes in evaluation order: two for ⋈ and ∪,
	// none for the atoms, one for every other operator.
	In []*Node

	// Pattern is the subtree's label pattern; nil when it is not one.
	Pattern *Pattern
	// Scan is set on σ[label = L] over an atom: a label index answers it.
	Scan *Scan
	// Ends is set on σ over ϕ over a label pattern: the condition's
	// conjuncts split by the endpoint they read.
	Ends *Ends
	// Search is set where a product search answers the node: on ϕ over a
	// label pattern, and on σ over such a ϕ when the condition seeds the
	// search's starting side.
	Search *Search
	// Quota is what the selector pipeline above keeps per endpoint pair,
	// pushed down through γ, τ, σ and ∪; zero when nothing is pushed here.
	Quota core.Quota

	// perPair: the subtree keeps or drops each endpoint pair's paths as a
	// prefix of the search's discovery order (see pipelineQuota).
	perPair bool
}

// Pattern is a label pattern: a subtree built from Edges(G),
// σ[label(edge(1)) = L](Edges(G)), ⋈ and ∪, whose closure under ϕ is the
// regular path query (Expr)+.
type Pattern struct {
	// Expr is the pattern as a regular path expression: Edges ↦ any
	// label, the label selection ↦ L, ⋈ ↦ concatenation, ∪ ↦ alternation.
	Expr rpq.Expr
	// First and Last are the labels the pattern's paths start and end
	// with.
	First, Last LabelSet
}

// LabelSet is a set of edge labels; Any stands for every label.
type LabelSet struct {
	Any    bool
	Labels []string
}

func (a LabelSet) union(b LabelSet) LabelSet {
	out := LabelSet{Any: a.Any || b.Any, Labels: slices.Clone(a.Labels)}
	for _, l := range b.Labels {
		if !slices.Contains(out.Labels, l) {
			out.Labels = append(out.Labels, l)
		}
	}
	return out
}

// Scan is a selection a label index answers: σ[label(edge(1)) = L](Edges)
// when Edge, σ[label(first|last|node(1)) = L](Nodes) otherwise.
type Scan struct {
	Edge  bool
	Label string
}

// Ends is a selection condition split by SplitByEndpoint.
type Ends struct {
	First, Last, Rest []cond.Cond
}

// Search is the product search answering a node: the recursion it runs
// and the Glushkov automaton of (pattern)+ — of the reversed pattern when
// the recursion runs backward. On σ it also carries the conjuncts whose
// node set seeds the search (nil: every node) and the conjunction its
// result is filtered by (nil: none).
type Search struct {
	Rec    core.Recurse
	NFA    *automaton.NFA
	Seed   []cond.Cond
	Filter cond.Cond
}

// Derivation is a physical plan annotated by Derive.
type Derivation struct {
	Root *Node
	// Footprint is the plan's label footprint: the node and edge label
	// populations its result can depend on (see footprint).
	Footprint graph.Footprint
	reach     *ReachPlan
}

// Derive annotates a physical plan in two walks. Bottom-up it computes
// each subtree's label pattern, the label-index σ forms and the endpoint
// split of σ over a pattern recursion; top-down it pushes the selector
// quota of every π/τ/γ pipeline through σ and ∪, and on the way back up
// builds each pattern recursion's automaton and seeding. At the root it
// records the label footprint and the reach-kernel plan. The engine
// evaluates the annotated tree, and its plan cache keeps it beside the
// plan, so a cached plan is never re-derived.
func Derive(x core.PathExpr) *Derivation {
	root := annotate(x)
	root.push(core.Quota{})
	d := &Derivation{Root: root, reach: reachOf(root)}
	root.footprint(&d.Footprint)
	d.Footprint = d.Footprint.Normalize()
	return d
}

// Reach returns the kernel plan of a plan reachOf admits for mode.
func (d *Derivation) Reach(mode ReachMode) (ReachPlan, bool) {
	if d.reach == nil || mode > ReachShortestLengths || mode == ReachCountPaths {
		return ReachPlan{}, false
	}
	return *d.reach, true
}

// annotate is the bottom-up walk over a path-sorted subtree.
func annotate(x core.PathExpr) *Node {
	n := &Node{Path: x}
	switch x := x.(type) {
	case core.Edges:
		all := LabelSet{Any: true}
		n.Pattern = &Pattern{Expr: rpq.AnyLabel{}, First: all, Last: all}
	case core.Select:
		in := annotate(x.In)
		n.In = []*Node{in}
		if s, ok := labelScan(x); ok {
			n.Scan = &s
			if s.Edge {
				set := LabelSet{Labels: []string{s.Label}}
				n.Pattern = &Pattern{Expr: rpq.Label{Name: s.Label}, First: set, Last: set}
			}
		}
		if _, _, ok := in.patternRec(); ok {
			first, last, rest := SplitByEndpoint(x.Cond)
			n.Ends = &Ends{First: first, Last: last, Rest: rest}
		}
		n.perPair = endpointsOnly(x.Cond) && in.perPair
	case core.Join:
		l, r := annotate(x.L), annotate(x.R)
		n.In = []*Node{l, r}
		if l.Pattern != nil && r.Pattern != nil {
			n.Pattern = &Pattern{
				Expr:  rpq.Concat{L: l.Pattern.Expr, R: r.Pattern.Expr},
				First: l.Pattern.First, Last: r.Pattern.Last,
			}
		}
	case core.Union:
		l, r := annotate(x.L), annotate(x.R)
		n.In = []*Node{l, r}
		if l.Pattern != nil && r.Pattern != nil {
			n.Pattern = &Pattern{
				Expr:  rpq.Alt{L: l.Pattern.Expr, R: r.Pattern.Expr},
				First: l.Pattern.First.union(r.Pattern.First),
				Last:  l.Pattern.Last.union(r.Pattern.Last),
			}
		}
		n.perPair = l.perPair && r.perPair
	case core.Recurse:
		n.In = []*Node{annotate(x.In)}
		// ϕShortest already enumerates only minimal paths — the search runs
		// it under a one-length quota of its own: no prefix to cut.
		_, _, ok := n.patternRec()
		n.perPair = ok && x.Sem != core.Shortest
	case core.Restrict:
		n.In = []*Node{annotate(x.In)}
	case core.Project:
		n.In = []*Node{annotateSpace(x.In)}
	}
	return n
}

func annotateSpace(x core.SpaceExpr) *Node {
	n := &Node{Space: x}
	switch x := x.(type) {
	case core.GroupBy:
		n.In = []*Node{annotate(x.In)}
	case core.OrderBy:
		n.In = []*Node{annotateSpace(x.In)}
	}
	return n
}

// labelScan recognizes the two selections a label index answers.
func labelScan(s core.Select) (Scan, bool) {
	lc, ok := s.Cond.(cond.LabelCmp)
	if !ok || lc.Op != cond.EQ {
		return Scan{}, false
	}
	t := lc.Target
	switch s.In.(type) {
	case core.Edges:
		return Scan{Edge: true, Label: lc.Value}, t.Kind == cond.TargetEdge && t.Pos == 1
	case core.Nodes:
		// first == last on length-zero paths
		endpoint := t.Kind == cond.TargetFirst || t.Kind == cond.TargetLast ||
			(t.Kind == cond.TargetNode && t.Pos == 1)
		return Scan{Label: lc.Value}, endpoint
	default:
		return Scan{}, false
	}
}

// patternRec reports whether n is ϕ over a label pattern — the recursion
// a product search answers — returning the recursion and the pattern.
func (n *Node) patternRec() (core.Recurse, *Pattern, bool) {
	rec, ok := n.Path.(core.Recurse)
	if !ok || n.In[0].Pattern == nil {
		return core.Recurse{}, nil, false
	}
	return rec, n.In[0].Pattern, true
}

// push is the top-down walk: n receives quota q, hands its operands
// theirs, and once they are done builds its own search.
func (n *Node) push(q core.Quota) {
	n.Quota = q
	var down core.Quota
	switch x := n.Path.(type) {
	case core.Select, core.Union:
		down = q
	case core.Project:
		down = pipelineQuota(x, n)
	case nil:
		down = q // γ and τ hand it to their input
	}
	for _, in := range n.In {
		in.push(down)
	}
	if rec, pat, ok := n.patternRec(); ok {
		re := pat.Expr
		if rec.Dir == core.Backward {
			re = rpq.Reverse(re)
		}
		n.Search = &Search{Rec: rec, NFA: automaton.Build(rpq.Plus{In: re})}
	} else if n.Ends != nil {
		n.Search = seededSearch(n.Ends, n.In[0].Search)
	}
}

// seededSearch is the search answering σc(ϕ) from ϕ's own search: seeded
// only at the nodes that satisfy c's conjuncts on the search's starting
// side — first-node conjuncts forward, last-node ones backward. Such a
// conjunct's value is a function of that one node, so seeding equals
// "search everything, then filter", in the same order, since the search
// orders its result by length, then by seed, seeds ascending. The other
// conjuncts filter the result. Nil when a forward search has nothing to seed with: ϕ's search
// plus σ's filter does the same work.
func seededSearch(e *Ends, s *Search) *Search {
	seed, filter := e.First, append(append([]cond.Cond{}, e.Last...), e.Rest...)
	if s.Rec.Dir == core.Backward {
		seed, filter = e.Last, append(append([]cond.Cond{}, e.First...), e.Rest...)
	} else if len(seed) == 0 {
		return nil
	}
	out := &Search{Rec: s.Rec, NFA: s.NFA, Seed: seed}
	if len(filter) > 0 {
		out.Filter = cond.Conj(filter...)
	}
	return out
}

// pathInput returns the path operand under a π node's τ/γ chain; nil when
// the chain does not end in γ.
func pathInput(n *Node) *Node {
	for n = n.In[0]; n.Space != nil; n = n.In[0] {
		if _, ok := n.Space.(core.GroupBy); ok {
			return n.In[0]
		}
	}
	return nil
}

// footprint accumulates the label populations n's result can depend on.
// It leans on the store's immutability discipline — labels and
// properties never change after creation — so a subtree's result changes
// only when the object populations it draws from change. Conditions,
// grouping and ordering read attributes of objects the input supplies
// and add nothing; a label-index σ narrows its atom to one label; the
// atoms depend on every node or edge.
func (n *Node) footprint(fp *graph.Footprint) {
	if s := n.Scan; s != nil {
		if s.Edge {
			fp.EdgeLabels = append(fp.EdgeLabels, s.Label)
		} else {
			fp.NodeLabels = append(fp.NodeLabels, s.Label)
		}
		return
	}
	switch n.Path.(type) {
	case core.Nodes:
		fp.AllNodes = true
	case core.Edges:
		fp.AllEdges = true
	case nil:
		if n.Space == nil {
			fp.AllNodes, fp.AllEdges = true, true
		}
	}
	for _, in := range n.In {
		in.footprint(fp)
	}
}
