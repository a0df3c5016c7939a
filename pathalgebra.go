// Package pathalgebra is a Go implementation of the path algebra of
// "Path-based Algebraic Foundations of Graph Query Languages" (Angles,
// Bonifati, García, Vrgoč — EDBT 2025): an algebra in which sets of paths
// are first-class values, with selection/join/union core operators, a
// recursive operator under Walk/Trail/Acyclic/Simple/Shortest semantics,
// and solution-space operators (group-by, order-by, projection) that give
// precise semantics to the selectors and restrictors of GQL and SQL/PGQ.
//
// This package is the public facade. A typical interaction:
//
//	g := pathalgebra.Figure1() // the paper's running-example graph
//	res, err := pathalgebra.Run(g,
//	    `MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)`,
//	    pathalgebra.RunOptions{})
//	fmt.Println(res.Format(g))
//
// Power users build plans directly from the algebra (package internal/core
// types are re-exported here), optimize them with Optimize, and execute
// them with an Engine.
package pathalgebra

import (
	"context"
	"fmt"
	"io"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/gql"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/ldbc"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/path"
	"pathalgebra/internal/pathset"
	"pathalgebra/internal/rpq"
)

// Re-exported data model types.
type (
	// Graph is an immutable property graph (Definition 2.1).
	Graph = graph.Graph
	// GraphBuilder accumulates nodes and edges into a Graph.
	GraphBuilder = graph.Builder
	// Value is a property value.
	Value = graph.Value
	// NodeID identifies a node within a Graph.
	NodeID = graph.NodeID
	// EdgeID identifies an edge within a Graph.
	EdgeID = graph.EdgeID
	// Path is an immutable path (§2.2).
	Path = path.Path
	// PathSet is a duplicate-free set of paths, the algebra's value type.
	PathSet = pathset.Set
	// SolutionSpace is the extended algebra's structured value (§5).
	SolutionSpace = core.SolutionSpace
)

// Re-exported algebra types. PathExpr/SpaceExpr trees are logical plans.
type (
	// PathExpr is an algebra expression evaluating to a PathSet.
	PathExpr = core.PathExpr
	// SpaceExpr is an algebra expression evaluating to a SolutionSpace.
	SpaceExpr = core.SpaceExpr
	// Semantics selects the path semantics of the recursive operator.
	Semantics = core.Semantics
	// Limits bounds recursive evaluation.
	Limits = core.Limits
	// Cond is a selection condition (§3.1).
	Cond = cond.Cond
	// RPQ is a regular path expression.
	RPQ = rpq.Expr
	// Query is a parsed GQL path query.
	Query = gql.Query
	// Selector is a classic GQL selector (Table 1).
	Selector = gql.Selector
	// SelectorKind enumerates the GQL selectors.
	SelectorKind = gql.SelectorKind
)

// Path semantics constants (Table 2 restrictors plus SHORTEST).
const (
	WalkSemantics     = core.Walk
	TrailSemantics    = core.Trail
	AcyclicSemantics  = core.Acyclic
	SimpleSemantics   = core.Simple
	ShortestSemantics = core.Shortest
)

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// ReadGraphJSON loads a graph from its JSON representation.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return graph.ReadJSON(r) }

// ReadGraphCSV loads a graph from node and edge CSV streams (the LDBC SNB
// interchange style; see internal/graph.ReadCSV for the header format).
func ReadGraphCSV(nodes, edges io.Reader) (*Graph, error) { return graph.ReadCSV(nodes, edges) }

// Figure1 returns the paper's running-example social network graph.
func Figure1() *Graph { return ldbc.Figure1() }

// SNBConfig parameterizes the synthetic LDBC-SNB-like graph generator.
type SNBConfig = ldbc.Config

// GenerateSNB builds a synthetic social network graph for benchmarking.
func GenerateSNB(cfg SNBConfig) (*Graph, error) { return ldbc.Generate(cfg) }

// ParseQuery parses a GQL path query (classic or extended §7.1 syntax).
func ParseQuery(query string) (*Query, error) { return gql.Parse(query) }

// CompileQuery translates a parsed query into a logical plan.
func CompileQuery(q *Query) (PathExpr, error) { return gql.Compile(q) }

// ParseRPQ parses a regular path expression such as
// "(:Knows+)|(:Likes/:Has_creator)*".
func ParseRPQ(expr string) (RPQ, error) { return rpq.Parse(expr) }

// CompileRPQ compiles a regular path expression into a logical plan under
// the given semantics (Figures 2–4).
func CompileRPQ(expr RPQ, sem Semantics) PathExpr { return rpq.Compile(expr, sem) }

// CompileSelector wraps a pattern plan in the γ/τ/π combination of the
// paper's Table 7 for the given selector.
func CompileSelector(sel Selector, in PathExpr) (PathExpr, error) {
	return gql.CompileSelector(sel, in)
}

// ParseCond parses a selection condition in the §3.1 syntax.
func ParseCond(expr string) (Cond, error) { return cond.Parse(expr) }

// Optimize rewrites a plan with the §7.3 rules, returning the optimized
// plan and the names of the rules that fired.
func Optimize(plan PathExpr) (PathExpr, []string) {
	res := opt.Optimize(plan)
	return res.Plan, res.Applied
}

// PrintPlan renders a logical plan as the §7.2 textual tree.
func PrintPlan(plan PathExpr) string { return gql.PrintPlan(plan) }

// EngineOptions configures plan execution.
type EngineOptions = engine.Options

// Engine executes logical plans against a graph. Engine.Run plans through
// the cost-based planner and LRU plan cache; Engine.EvalPaths executes a
// plan exactly as given; Engine.Explain reports the chosen plan with
// estimated vs. actual per-operator cardinalities.
type Engine = engine.Engine

// Explain is the result of Engine.Explain.
type Explain = engine.Explain

// Stream is a chunked, cancellable result cursor produced by
// Engine.RunStream: chunks concatenate to exactly the Engine.Run result,
// and cancelling the stream's context aborts the evaluation promptly.
type Stream = engine.Stream

// StreamOptions configures Engine.RunStream (chunk size).
type StreamOptions = engine.StreamOptions

// ErrBudgetExceeded is the typed, errors.Is-able error returned when a
// recursive evaluation exceeds its Limits budget — distinct from the
// cancellation causes (context.Canceled, context.DeadlineExceeded) a
// cancelled RunCtx/RunStream returns.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// NewEngine returns an engine over g.
func NewEngine(g *Graph, opts EngineOptions) *Engine { return engine.New(g, opts) }

// Trace collects a per-query span tree: parse, plan, cache probe,
// evaluation, search and merge phases, annotated with frontier sizes,
// arena bytes and budget charges. Traces are observation-only — a traced
// evaluation returns byte-identical results.
type Trace = obs.Trace

// Span is one timed phase of a Trace. All Span methods are no-ops on a
// nil receiver, so untraced code paths thread nil spans at zero cost.
type Span = obs.Span

// NewTrace returns an empty trace. Start a root span with Trace.Start,
// thread it into an evaluation with ContextWithSpan, and render the
// result with Trace.Format or Trace.Tree.
func NewTrace() *Trace { return obs.NewTrace() }

// ContextWithSpan returns a context carrying sp: engine entry points
// called with it (RunCtx, RunStream, ReachCtx) attach their plan and
// evaluation spans beneath sp. With a nil sp, ctx is returned unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context { return obs.WithSpan(ctx, sp) }

// Live-graph types: a Store is an updatable graph — an epoch sequence of
// immutable graphs. Apply ingests a Batch of mutations atomically and
// publishes a new epoch; Current reads the latest epoch as a plain value,
// which stays valid for as long as the reader holds it; a background
// compactor folds accumulated deltas into fresh sealed CSR epochs.
type (
	// Store is the epoch-based live graph store.
	Store = graph.Store
	// StoreOptions configures compaction behavior.
	StoreOptions = graph.StoreOptions
	// Batch is an ordered, atomic group of graph mutations.
	Batch = graph.Batch
	// Op is one mutation: add/delete of a node or edge.
	Op = graph.Op
	// OpKind enumerates the mutation kinds.
	OpKind = graph.OpKind
	// Footprint is the set of labels a plan reads — the unit of epoch-
	// aware result invalidation.
	Footprint = graph.Footprint
)

// Mutation kinds for Batch ops.
const (
	OpAddNode = graph.OpAddNode
	OpAddEdge = graph.OpAddEdge
	OpDelNode = graph.OpDelNode
	OpDelEdge = graph.OpDelEdge
)

// Typed, errors.Is-able validation errors returned by Store.Apply and the
// graph builders/loaders.
var (
	// ErrDuplicateKey reports a node or edge key that already names a live
	// object.
	ErrDuplicateKey = graph.ErrDuplicateKey
	// ErrUnknownNode reports an edge referencing a missing endpoint.
	ErrUnknownNode = graph.ErrUnknownNode
	// ErrUnknownKey reports a delete of a key that names nothing.
	ErrUnknownKey = graph.ErrUnknownKey
)

// NewStore wraps a sealed graph in a live store.
func NewStore(g *Graph, opts StoreOptions) *Store { return graph.NewStore(g, opts) }

// NewEngineWithStore returns an engine over a live store: every Run/
// Stream/Explain evaluates against the store's current epoch, taken once
// when the call starts, so concurrent ingest and compaction never disturb
// a running query.
func NewEngineWithStore(s *Store, opts EngineOptions) *Engine {
	return engine.NewWithStore(s, opts)
}

// ReadBatchNDJSON parses a mutation batch from NDJSON (one op per line).
func ReadBatchNDJSON(r io.Reader) (Batch, error) { return graph.ReadBatchNDJSON(r) }

// ReadBatchCSV parses a mutation batch from CSV (header op,key,src,dst,label).
func ReadBatchCSV(r io.Reader) (Batch, error) { return graph.ReadBatchCSV(r) }

// PlanFootprint computes the label footprint of a plan — which node and
// edge labels its result can depend on.
func PlanFootprint(plan PathExpr) Footprint { return engine.PlanFootprint(plan) }

// ComposeQueries implements the paper's §2.3 composition of path queries
//
//	s r [s1 r1 (x, regex1, y)] · [s2 r2 (z, regex2, w)] · ...
//
// Each sub-query is compiled with its own selector and restrictor; the
// resulting answer sets are concatenated with the path join; the outer
// restrictor is applied as a filter (ρ) over the concatenated set — for
// Shortest it keeps the minimal-length concatenations per endpoint pair —
// and finally the outer selector's Table 7 pipeline runs on top. This is
// the feature the paper notes current query languages lose: the output of
// one path query is a set of paths the next operator consumes directly.
func ComposeQueries(outer Selector, restrictor Semantics, subs ...*Query) (PathExpr, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("pathalgebra: ComposeQueries needs at least one sub-query")
	}
	var plan PathExpr
	for i, q := range subs {
		sub, err := gql.Compile(q)
		if err != nil {
			return nil, fmt.Errorf("pathalgebra: sub-query %d: %w", i+1, err)
		}
		if plan == nil {
			plan = sub
		} else {
			plan = core.Join{L: plan, R: sub}
		}
	}
	plan = core.Restrict{Sem: restrictor, In: plan}
	if outer.Kind == gql.SelNone {
		return plan, nil
	}
	return gql.CompileSelector(outer, plan)
}

// RunOptions configures the one-shot Run helper.
type RunOptions struct {
	// Limits bounds recursive operators (defaults: a result-size safety
	// net only). Walk queries over cyclic graphs need a MaxLen.
	Limits Limits
	// NoOptimize executes the plan exactly as compiled.
	NoOptimize bool
	// DisablePlanner falls back to the statistics-free heuristic
	// optimizer instead of the cost-based planner.
	DisablePlanner bool
}

// Run parses, compiles, plans and executes a query in one call. Planning
// goes through the cost-based planner (statistics-driven join order,
// evaluation direction and rewrite gating) unless DisablePlanner is set.
func Run(g *Graph, query string, opts RunOptions) (*PathSet, error) {
	q, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	plan, err := CompileQuery(q)
	if err != nil {
		return nil, err
	}
	eng := engine.New(g, engine.Options{
		Limits:         opts.Limits,
		DisablePlanner: opts.DisablePlanner,
	})
	if opts.NoOptimize {
		return eng.EvalPaths(plan)
	}
	return eng.Run(plan)
}

// MustRun is Run panicking on error, for examples and tests.
func MustRun(g *Graph, query string, opts RunOptions) *PathSet {
	s, err := Run(g, query, opts)
	if err != nil {
		panic(fmt.Sprintf("pathalgebra: %v", err))
	}
	return s
}
