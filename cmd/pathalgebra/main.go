// Command pathalgebra is a command-line front end to the path algebra:
// it parses extended-GQL path queries, shows their logical plans, applies
// the optimizer, and evaluates them against a property graph.
//
// Usage:
//
//	pathalgebra parse  -query 'MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)'
//	pathalgebra plan   -query '...'              # optimized plan + fired rules
//	pathalgebra run    -query '...' [-graph g.json | -figure1] [-maxlen N]
//	pathalgebra export -figure1                  # dump a graph as JSON
//
// With no -graph flag, run and export use the paper's Figure 1 graph.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"pathalgebra"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "parse":
		err = cmdParse(args)
	case "plan":
		err = cmdPlan(args)
	case "run":
		err = cmdRun(args)
	case "export":
		err = cmdExport(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pathalgebra: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathalgebra:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pathalgebra <command> [flags]

commands:
  parse   parse a query and print its logical plan (unoptimized)
  plan    parse, optimize, and print the plan with the rules that fired
  run     evaluate a query against a graph and print the result paths
  export  print a graph as JSON

flags (per command):
  -query  the path query (required for parse/plan/run)
  -graph  JSON graph file (default: the paper's Figure 1 graph)
  -figure1  force the Figure 1 graph
  -ingest   NDJSON (or .csv) mutation batch applied to the graph before
            evaluation (add_node/add_edge/del_node/del_edge ops)
  -maxlen   bound recursive path length (0 = unbounded)
  -maxpaths bound result size (0 = default safety net)
  -maxwork  bound materialized node slots (0 = default safety net)
  -timeout  abort evaluation after this duration, e.g. 500ms or 10s
            (run only; 0 = no deadline). Ctrl-C likewise aborts the
            running query and prints partial stats.
  -no-opt   skip the optimizer (run only)
  -no-planner use the heuristic optimizer without graph statistics
            (run only; the cost-based planner is the default)
  -explain  print the chosen plan with estimated vs actual operator
            cardinalities and plan-cache state (run only)
  -stats    print execution statistics (run only)
  -trace    print the per-query span tree after the results (run only)`)
}

type queryFlags struct {
	fs        *flag.FlagSet
	query     *string
	graph     *string
	nodesCSV  *string
	edgesCSV  *string
	figure1   *bool
	ingest    *string
	maxLen    *int
	maxPaths  *int
	maxWork   *int
	timeout   *time.Duration
	noOpt     *bool
	noPlanner *bool
	explain   *bool
	stats     *bool
	trace     *bool
}

func newQueryFlags(name string) *queryFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &queryFlags{
		fs:        fs,
		query:     fs.String("query", "", "path query"),
		graph:     fs.String("graph", "", "JSON graph file"),
		nodesCSV:  fs.String("nodes", "", "node CSV file (with -edges)"),
		edgesCSV:  fs.String("edges", "", "edge CSV file (with -nodes)"),
		figure1:   fs.Bool("figure1", false, "use the paper's Figure 1 graph"),
		ingest:    fs.String("ingest", "", "NDJSON batch file (or .csv) of mutations applied before evaluation"),
		maxLen:    fs.Int("maxlen", 0, "bound recursive path length"),
		maxPaths:  fs.Int("maxpaths", 0, "bound result size"),
		maxWork:   fs.Int("maxwork", 0, "bound materialized node slots"),
		timeout:   fs.Duration("timeout", 0, "abort evaluation after this duration (0 = none)"),
		noOpt:     fs.Bool("no-opt", false, "skip the optimizer"),
		noPlanner: fs.Bool("no-planner", false, "use the heuristic optimizer without graph statistics"),
		explain:   fs.Bool("explain", false, "print the chosen plan with estimated vs actual cardinalities"),
		stats:     fs.Bool("stats", false, "print execution statistics"),
		trace:     fs.Bool("trace", false, "print the per-query span tree after the results"),
	}
}

func (qf *queryFlags) loadGraph() (*pathalgebra.Graph, error) {
	g, err := qf.loadBase()
	if err != nil || *qf.ingest == "" {
		return g, err
	}
	// Apply the batch through a live store and evaluate against the
	// resulting epoch's view — the CLI analogue of the daemon's /ingest.
	f, err := os.Open(*qf.ingest)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var batch pathalgebra.Batch
	if strings.HasSuffix(*qf.ingest, ".csv") {
		batch, err = pathalgebra.ReadBatchCSV(f)
	} else {
		batch, err = pathalgebra.ReadBatchNDJSON(f)
	}
	if err != nil {
		return nil, err
	}
	store := pathalgebra.NewStore(g, pathalgebra.StoreOptions{CompactThreshold: -1})
	defer store.Close()
	if _, err := store.Apply(batch); err != nil {
		return nil, err
	}
	return store.Graph(), nil
}

func (qf *queryFlags) loadBase() (*pathalgebra.Graph, error) {
	switch {
	case *qf.nodesCSV != "" || *qf.edgesCSV != "":
		if *qf.nodesCSV == "" || *qf.edgesCSV == "" {
			return nil, fmt.Errorf("-nodes and -edges must be given together")
		}
		nf, err := os.Open(*qf.nodesCSV)
		if err != nil {
			return nil, err
		}
		defer nf.Close()
		ef, err := os.Open(*qf.edgesCSV)
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		return pathalgebra.ReadGraphCSV(nf, ef)
	case *qf.graph != "" && !*qf.figure1:
		f, err := os.Open(*qf.graph)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pathalgebra.ReadGraphJSON(f)
	default:
		return pathalgebra.Figure1(), nil
	}
}

func (qf *queryFlags) mustQuery() (string, error) {
	if *qf.query == "" {
		return "", fmt.Errorf("%s: -query is required", qf.fs.Name())
	}
	return *qf.query, nil
}

func cmdParse(args []string) error {
	qf := newQueryFlags("parse")
	if err := qf.fs.Parse(args); err != nil {
		return err
	}
	query, err := qf.mustQuery()
	if err != nil {
		return err
	}
	q, err := pathalgebra.ParseQuery(query)
	if err != nil {
		return err
	}
	fmt.Println("query:", q)
	plan, err := pathalgebra.CompileQuery(q)
	if err != nil {
		return err
	}
	fmt.Print(pathalgebra.PrintPlan(plan))
	return nil
}

func cmdPlan(args []string) error {
	qf := newQueryFlags("plan")
	if err := qf.fs.Parse(args); err != nil {
		return err
	}
	query, err := qf.mustQuery()
	if err != nil {
		return err
	}
	q, err := pathalgebra.ParseQuery(query)
	if err != nil {
		return err
	}
	plan, err := pathalgebra.CompileQuery(q)
	if err != nil {
		return err
	}
	optimized, rules := pathalgebra.Optimize(plan)
	if len(rules) == 0 {
		fmt.Println("no rewrite rules fired")
	} else {
		fmt.Println("rules fired:", rules)
	}
	fmt.Print(pathalgebra.PrintPlan(optimized))
	return nil
}

func cmdRun(args []string) error {
	qf := newQueryFlags("run")
	if err := qf.fs.Parse(args); err != nil {
		return err
	}
	query, err := qf.mustQuery()
	if err != nil {
		return err
	}
	g, err := qf.loadGraph()
	if err != nil {
		return err
	}
	q, err := pathalgebra.ParseQuery(query)
	if err != nil {
		return err
	}
	plan, err := pathalgebra.CompileQuery(q)
	if err != nil {
		return err
	}
	if *qf.noOpt && *qf.explain {
		return fmt.Errorf("-explain cannot be combined with -no-opt (there is no planned plan to explain)")
	}
	eng := pathalgebra.NewEngine(g, pathalgebra.EngineOptions{
		Limits:         pathalgebra.Limits{MaxLen: *qf.maxLen, MaxPaths: *qf.maxPaths, MaxWork: *qf.maxWork},
		DisablePlanner: *qf.noPlanner,
	})
	// Ctrl-C (and -timeout) cancel the evaluation context instead of
	// killing the process: the evaluation stops at its next budget charge
	// and partial stats are reported below. A second
	// Ctrl-C after `stop` restores the default kill behavior.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var cancel context.CancelFunc
	if *qf.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *qf.timeout)
		defer cancel()
	}
	var tr *pathalgebra.Trace
	if *qf.trace {
		tr = pathalgebra.NewTrace()
		ctx = pathalgebra.ContextWithSpan(ctx, tr.Start("query"))
	}
	var res *pathalgebra.PathSet
	switch {
	case *qf.noOpt:
		res, err = eng.EvalPathsCtx(ctx, plan)
	case *qf.explain:
		var ex *pathalgebra.Explain
		ex, err = eng.Explain(ctx, plan)
		if err == nil {
			fmt.Println("plan:")
			fmt.Print(pathalgebra.PrintPlan(ex.Plan))
			fmt.Print(ex.Format())
			res = ex.Result
		}
	default:
		res, err = eng.RunCtx(ctx, plan)
	}
	stop()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s := eng.Stats()
			fmt.Fprintf(os.Stderr, "query aborted (%v); partial stats: paths=%d joinProbes=%d recursions=%d seeded=%d backward=%d\n",
				err, s.PathsProduced, s.JoinProbes, s.Recursions, s.SeededRecursions, s.BackwardRecursions)
		}
		return err
	}
	fmt.Printf("%d paths\n", res.Len())
	if res.Len() > 0 {
		fmt.Println(res.Format(g))
	}
	if tr != nil {
		fmt.Print("trace:\n", tr.Format())
	}
	if *qf.stats {
		s := eng.Stats()
		fmt.Printf("stats: paths=%d joinProbes=%d indexedScans=%d recursions=%d seeded=%d seedScans=%d backward=%d quota=%d planCacheHits=%d fpCollisions=%d symbols=%d\n",
			s.PathsProduced, s.JoinProbes, s.IndexedScans, s.Recursions, s.SeededRecursions, s.SeedScans,
			s.BackwardRecursions, s.QuotaRecursions, s.PlanCacheHits, s.FingerprintCollisions, g.NumSymbols())
	}
	return nil
}

func cmdExport(args []string) error {
	qf := newQueryFlags("export")
	if err := qf.fs.Parse(args); err != nil {
		return err
	}
	g, err := qf.loadGraph()
	if err != nil {
		return err
	}
	return g.WriteJSON(os.Stdout)
}
