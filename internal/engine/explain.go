package engine

import (
	"context"
	"fmt"
	"strings"

	"pathalgebra/internal/core"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/pathset"
)

// ExplainLine is one operator of an explained plan with its estimated and
// actual output cardinality.
type ExplainLine struct {
	Depth  int
	Op     string
	Est    float64
	Actual int
}

// Explain is the result of Engine.Explain: the chosen physical plan, the
// planner rules that shaped it, whether it came out of the plan cache,
// and the per-operator estimated vs. actual cardinalities. Kernel reports
// the route a path-free Reach call on this plan would take:
// "reach-bitset" when the plan is kernel-eligible and the graph's bitset
// index is feasible, "enumeration" otherwise. (Run always enumerates —
// it returns paths.)
type Explain struct {
	Plan     core.PathExpr
	Applied  []string
	CacheHit bool
	Kernel   string
	Lines    []ExplainLine
	Result   *pathset.Set
}

// Explain plans x like Run and then evaluates every operator of the
// chosen plan, recording its estimated and actual cardinality. Each
// subtree is evaluated independently (the engine memoizes nothing across
// operators), so Explain costs O(depth) times the plain evaluation —
// a diagnostic tool, not an execution mode. Cancelling ctx aborts it as
// it aborts RunCtx. On a live engine the whole explanation — planning,
// estimates and every operator evaluation — runs against one pinned
// epoch.
func (e *Engine) Explain(ctx context.Context, x core.PathExpr) (*Explain, error) {
	b, release := e.pin()
	defer release()
	ent, hit := b.plan(x)
	ex := &Explain{
		Plan:     ent.plan,
		Applied:  ent.applied,
		CacheHit: hit,
		Kernel:   b.reachRoute(ent.derived),
	}
	if err := b.explain(ctx, ent.derived.Root, 0, ex); err != nil {
		e.noteEvalErr(err)
		return nil, err
	}
	return ex, nil
}

// explain evaluates n, appends its line and explains its operands one
// level deeper. Every node evaluates under the quota the derivation pushed
// to it, so each line's actual count is what Run produces there, and a
// recursion's line names the quota it searched under.
func (e *Engine) explain(ctx context.Context, n *opt.Node, depth int, ex *Explain) error {
	line := ExplainLine{Depth: depth, Op: opLabel(n)}
	if n.Space != nil {
		ss, err := e.evalSpace(ctx, n)
		if err != nil {
			return err
		}
		if g, ok := core.BottomGroupBy(n.Space); ok {
			line.Est = e.cm.Card(g.In)
		}
		line.Actual = ss.NumPaths()
	} else {
		out, err := e.eval(ctx, n)
		if err != nil {
			return err
		}
		if depth == 0 {
			ex.Result = out
		}
		line.Est, line.Actual = e.cm.Card(n.Path), out.Len()
	}
	ex.Lines = append(ex.Lines, line)
	for _, in := range n.In {
		if err := e.explain(ctx, in, depth+1, ex); err != nil {
			return err
		}
	}
	return nil
}

// opLabel is the one-line operator label of an explain row — the node's
// own operator without its subtree.
func opLabel(n *opt.Node) string {
	switch x := n.Space.(type) {
	case core.GroupBy:
		return fmt.Sprintf("γ%s", x.Key)
	case core.OrderBy:
		return fmt.Sprintf("τ%s", x.Key)
	}
	switch x := n.Path.(type) {
	case core.Nodes:
		return "Nodes(G)"
	case core.Edges:
		return "Edges(G)"
	case core.Select:
		return fmt.Sprintf("σ[%s]", x.Cond)
	case core.Join:
		return "⋈"
	case core.Union:
		return "∪"
	case core.Recurse:
		op := fmt.Sprintf("ϕ%s", x.Sem)
		if x.Dir == core.Backward {
			op += "←"
		}
		if n.Quota.K > 0 {
			op += fmt.Sprintf(" [quota %s]", n.Quota)
		}
		return op
	case core.Restrict:
		return fmt.Sprintf("ρ%s", x.Sem)
	case core.Project:
		return fmt.Sprintf("π(%s,%s,%s)", x.Parts, x.Groups, x.Paths)
	default:
		return fmt.Sprintf("%T", x)
	}
}

// Format renders the explanation: fired rules, cache state, and the
// operator table with estimated vs. actual cardinalities.
func (ex *Explain) Format() string {
	var sb strings.Builder
	if len(ex.Applied) == 0 {
		sb.WriteString("rules fired: none\n")
	} else {
		fmt.Fprintf(&sb, "rules fired: %s\n", strings.Join(ex.Applied, ", "))
	}
	fmt.Fprintf(&sb, "plan cache: %s\n", map[bool]string{true: "hit", false: "miss"}[ex.CacheHit])
	if ex.Kernel != "" {
		fmt.Fprintf(&sb, "reach kernel: %s\n", ex.Kernel)
	}
	sb.WriteString("operators (estimated vs actual):\n")
	for _, l := range ex.Lines {
		indent := strings.Repeat("  ", l.Depth)
		op := indent + l.Op
		fmt.Fprintf(&sb, "  %-44s est=%-12s actual=%d\n", op, fmtEst(l.Est), l.Actual)
	}
	return sb.String()
}

// fmtEst renders an estimate compactly and deterministically.
func fmtEst(est float64) string {
	return fmt.Sprintf("%.4g", est)
}
