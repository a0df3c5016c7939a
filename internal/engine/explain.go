package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"pathalgebra/internal/core"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/pathset"
)

// ExplainLine is one operator of an explained plan with its estimated and
// actual output cardinality; Actual is -1 for an operator the run never
// evaluated on its own.
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
// "product-bfs" when the plan is kernel-eligible, "enumeration"
// otherwise. (Run always enumerates — it returns paths.)
type Explain struct {
	Plan     core.PathExpr
	Applied  []string
	CacheHit bool
	Kernel   string
	Lines    []ExplainLine
	Result   *pathset.Set
}

// Explain runs x exactly as RunCtx does, under a trace, and reads the
// explanation off that run: the plan cache state from its "plan" span
// and each operator's actual cardinality from its operator span. An
// operator the run answered inside an ancestor's product search or
// label-index scan was never evaluated on its own and reports Actual -1.
// The estimates come from the cost model. When ctx already carries a
// span, the run's spans also land in the caller's trace, under an
// "explain" span. On a live engine the whole explanation runs against
// one epoch.
func (e *Engine) Explain(ctx context.Context, x core.PathExpr) (*Explain, error) {
	b := e.bind()
	sp := obs.SpanFrom(ctx).Start("explain")
	if sp == nil {
		sp = obs.NewTrace().Start("explain")
	}
	defer sp.End()
	ent, out, err := b.run(obs.WithSpan(ctx, sp), x)
	if err != nil {
		return nil, err
	}
	ex := &Explain{
		Plan:    ent.plan,
		Applied: ent.applied,
		Kernel:  reachRoute(ent.derived),
		Result:  out,
	}
	var ops []*obs.SpanJSON
	for _, c := range sp.Tree().Children {
		switch c.Name {
		case "plan":
			ex.CacheHit = c.Attrs["cache_hit"] == 1
		case "eval":
			ops = c.Children
		}
	}
	b.explainLines(ex, ent.derived.Root, ops, 0)
	return ex, nil
}

// explainLines appends n's line and its operands' lines one level deeper,
// and returns the spans after n's. n's operator span is the first of
// spans named by its label, since operands evaluate in order, and its
// operands match among that span's children. A γ or τ has no span of its
// own — π evaluates its chain in one node — so it hands spans on to its
// operand; any other node without a span leaves its whole subtree
// without one.
func (e *Engine) explainLines(ex *Explain, n *opt.Node, spans []*obs.SpanJSON, depth int) []*obs.SpanJSON {
	line := ExplainLine{Depth: depth, Op: opLabel(n), Actual: -1}
	if n.Space != nil {
		if g, ok := core.BottomGroupBy(n.Space); ok {
			line.Est = e.cm.Card(g.In)
		}
		ex.Lines = append(ex.Lines, line)
		for _, in := range n.In {
			spans = e.explainLines(ex, in, spans, depth+1)
		}
		return spans
	}
	line.Est = e.cm.Card(n.Path)
	var kids []*obs.SpanJSON
	for i, sp := range spans {
		if sp.Name == line.Op {
			line.Actual, kids, spans = int(sp.Attrs["paths"]), sp.Children, spans[i+1:]
			break
		}
	}
	ex.Lines = append(ex.Lines, line)
	for _, in := range n.In {
		kids = e.explainLines(ex, in, kids, depth+1)
	}
	return spans
}

// opLabel is the one-line operator label — the node's own operator
// without its subtree — naming both its operator span and its explain
// row.
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
		actual := "-"
		if l.Actual >= 0 {
			actual = strconv.Itoa(l.Actual)
		}
		fmt.Fprintf(&sb, "  %-44s est=%-12s actual=%s\n", indent+l.Op, fmtEst(l.Est), actual)
	}
	return sb.String()
}

// fmtEst renders an estimate compactly and deterministically.
func fmtEst(est float64) string {
	return fmt.Sprintf("%.4g", est)
}
