package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"pathalgebra/internal/core"
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
// a diagnostic tool, not an execution mode.
func (e *Engine) Explain(x core.PathExpr) (*Explain, error) {
	return e.ExplainCtx(context.Background(), x)
}

// ExplainCtx is Explain under cooperative cancellation (see RunCtx). On
// a live engine the whole explanation — planning, estimates and every
// operator evaluation — runs against one pinned epoch.
func (e *Engine) ExplainCtx(ctx context.Context, x core.PathExpr) (*Explain, error) {
	b, release := e.pin()
	defer release()
	ex, err := b.explainCtx(ctx, x)
	e.noteEvalErr(err)
	return ex, err
}

func (e *Engine) explainCtx(ctx context.Context, x core.PathExpr) (*Explain, error) {
	hitsBefore := atomic.LoadInt64(&e.stats.PlanCacheHits)
	plan, applied := e.plan(x)
	ex := &Explain{
		Plan:     plan,
		Applied:  applied,
		CacheHit: atomic.LoadInt64(&e.stats.PlanCacheHits) > hitsBefore,
		Kernel:   e.reachRoute(plan),
	}
	out, err := e.explainPath(ctx, plan, core.Quota{}, 0, ex)
	if err != nil {
		return nil, err
	}
	ex.Result = out
	return ex, nil
}

// explainPath evaluates x under the selector quota q its context pushes
// down (see evalPathsCtx) and hands q on to the children that evaluate
// under it too, so every line's actual count is what Run produces there
// and a recursion's line names the quota it searched under.
func (e *Engine) explainPath(ctx context.Context, x core.PathExpr, q core.Quota, depth int, ex *Explain) (*pathset.Set, error) {
	out, err := e.evalPathsCtx(ctx, x, q)
	if err != nil {
		return nil, err
	}
	op := opLabel(x)
	var children []core.PathExpr
	var childQuota core.Quota
	switch x := x.(type) {
	case core.Select:
		children, childQuota = []core.PathExpr{x.In}, q
	case core.Join:
		children = []core.PathExpr{x.L, x.R}
	case core.Union:
		children, childQuota = []core.PathExpr{x.L, x.R}, q
	case core.Recurse:
		children = []core.PathExpr{x.In}
		if q.K > 0 {
			op += fmt.Sprintf(" [quota %s]", q)
		}
	case core.Restrict:
		children = []core.PathExpr{x.In}
	}
	ex.Lines = append(ex.Lines, ExplainLine{
		Depth: depth, Op: op, Est: e.cm.Card(x), Actual: out.Len(),
	})
	if p, ok := x.(core.Project); ok {
		if err := e.explainSpace(ctx, p.In, e.pushedQuota(p), depth+1, ex); err != nil {
			return nil, err
		}
	}
	for _, c := range children {
		if _, err := e.explainPath(ctx, c, childQuota, depth+1, ex); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (e *Engine) explainSpace(ctx context.Context, x core.SpaceExpr, q core.Quota, depth int, ex *Explain) error {
	ss, err := e.evalSpaceCtx(ctx, x, q)
	if err != nil {
		return err
	}
	var op string
	var inner core.SpaceExpr
	var pathIn core.PathExpr
	switch x := x.(type) {
	case core.GroupBy:
		op = fmt.Sprintf("γ%s", x.Key)
		pathIn = x.In
	case core.OrderBy:
		op = fmt.Sprintf("τ%s", x.Key)
		inner = x.In
	default:
		op = fmt.Sprintf("%T", x)
	}
	var est float64
	if g, ok := core.BottomGroupBy(x); ok {
		est = e.cm.Card(g.In)
	}
	ex.Lines = append(ex.Lines, ExplainLine{Depth: depth, Op: op, Est: est, Actual: ss.NumPaths()})
	if inner != nil {
		return e.explainSpace(ctx, inner, q, depth+1, ex)
	}
	if pathIn != nil {
		_, err := e.explainPath(ctx, pathIn, q, depth+1, ex)
		return err
	}
	return nil
}

// opLabel is the one-line operator label of an explain row — the node's
// own operator without its subtree.
func opLabel(x core.PathExpr) string {
	switch x := x.(type) {
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
		if x.Dir == core.Backward {
			return fmt.Sprintf("ϕ%s←", x.Sem)
		}
		return fmt.Sprintf("ϕ%s", x.Sem)
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
