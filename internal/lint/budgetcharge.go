package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// BudgetCharge checks the budget-accounting invariant of the evaluation
// hot paths (the PR 2 / PR 3 MaxWork-bypass bug class): every loop that
// grows search state charges the shared core.Budget.
//
// Scope: non-test files of the evaluation packages (import path ending
// in internal/automaton, internal/core or internal/engine). Within a
// *budgeted* function — one with a core.Budget value in scope — three
// kinds of state growth must be charged inside their innermost loop:
//
//   - visited marks (RefSet.Add, or writes into a product-state-keyed
//     map) must be covered by a ChargeWork call — these are exactly the
//     auxiliary materializations MaxWork exists to bound;
//   - frontier pushes (append of a value carrying a path.Ref or an NFA
//     StateID) must be covered by a ChargeWork or ChargePath call;
//   - result admissions (Set.Add / Set.AddArena / Set.AddArenaReversed)
//     must be covered by a charge in the innermost loop, or anywhere in
//     the function for loop-free admissions (e.g. the empty-word seed
//     path — the exact site of the PR 2 bypass).
//
// Loop-free marks and pushes are exempt: seeding a search costs O(1)
// per source and is bounded by the input, not the expansion.
//
// A function with NO budget in scope that still loops over graph
// adjacency (Out/In/OutRuns/InRuns/OutWithSymbol/InWithSymbol) is
// flagged too: either the budget must be threaded through it, or a
// //lint:ignore budgetcharge suppression must say why accounting is the
// caller's job.
var BudgetCharge = &Analyzer{
	Name: "budgetcharge",
	Doc: "evaluation loops that grow search state must charge the core.Budget " +
		"(visited marks: ChargeWork; frontier pushes and admissions: ChargeWork or ChargePath)",
	Run: runBudgetCharge,
}

// budgetScopeRe selects the packages whose loops the analyzer audits.
var budgetScopeRe = regexp.MustCompile(`(^|/)(automaton|core|engine)$`)

// Adjacency primitives of graph.Graph — iterating them is the signature
// of an extension loop.
var adjacencyMethods = map[string]bool{
	"Out": true, "In": true,
	"OutRuns": true, "InRuns": true,
	"OutWithSymbol": true, "InWithSymbol": true,
}

func runBudgetCharge(pass *Pass) error {
	if pass.Pkg == nil || !budgetScopeRe.MatchString(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBudgetFunc(pass, fn)
		}
	}
	return nil
}

// chargeSite is one state-growth site and the charge it requires.
type chargeSite struct {
	node ast.Node
	kind string // "mark", "push", "admit"
	desc string
}

func checkBudgetFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Info
	budgeted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && namedTypeName(pass.TypeOf(e)) == "Budget" {
			budgeted = true
			return false
		}
		return true
	})

	loops := collectLoops(fn.Body)

	if !budgeted {
		// Helper rule: adjacency iteration with no budget in scope.
		for _, loop := range loops {
			if loopCallsAdjacency(pass, loop) && innermostLoopFor(loops, loop) == nil {
				pass.Reportf(loop.Pos(),
					"loop iterates graph adjacency but no core.Budget is in scope; "+
						"thread the budget through %s or suppress with a reason", fn.Name.Name)
			}
		}
		return
	}

	var sites []chargeSite
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, method, ok := methodCall(info, n); ok {
				switch {
				case method == "Add" && recv == "RefSet":
					sites = append(sites, chargeSite{n, "mark", "visited-set mark"})
				case recv == "Set" && (method == "Add" || method == "AddArena" || method == "AddArenaReversed"):
					sites = append(sites, chargeSite{n, "admit", "result admission (" + method + ")"})
				}
			} else if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) >= 2 {
				if isSearchStateType(pass.TypeOf(n.Args[1])) {
					sites = append(sites, chargeSite{n, "push", "frontier push"})
				}
			}
		case *ast.AssignStmt:
			// dist[productState{...}] = d style visited marks.
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				mt, ok := pass.TypeOf(ix.X).(*types.Map)
				if !ok {
					continue
				}
				if isSearchStateType(mt.Key()) {
					sites = append(sites, chargeSite{n, "mark", "product-state map mark"})
				}
			}
		}
		return true
	})

	for _, site := range sites {
		loop := innermostLoop(loops, site.node)
		var scope ast.Node
		if loop != nil {
			scope = loop
		} else {
			if site.kind != "admit" {
				continue // loop-free marks/pushes are bounded seeding
			}
			scope = fn.Body
		}
		work, path := chargesIn(pass, scope)
		ok := false
		switch site.kind {
		case "mark":
			ok = work
		case "push", "admit":
			ok = work || path
		}
		if !ok {
			need := "Budget.ChargeWork or ChargePath"
			if site.kind == "mark" {
				need = "Budget.ChargeWork"
			}
			where := "innermost enclosing loop"
			if loop == nil {
				where = "function"
			}
			pass.Reportf(site.node.Pos(), "%s is not budget-charged: the %s must call %s (MaxWork/MaxPaths bypass)",
				site.desc, where, need)
		}
	}
}

// isSearchStateType reports whether t is a search-state value: a type
// named Ref, or a struct with a field of type Ref or StateID. Frontier
// and worklist items in the evaluators all have this shape.
func isSearchStateType(t types.Type) bool {
	if t == nil {
		return false
	}
	if namedTypeName(t) == "Ref" {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		switch namedTypeName(st.Field(i).Type()) {
		case "Ref", "StateID":
			return true
		}
	}
	return false
}

// collectLoops returns every for/range statement in body, outermost
// first.
func collectLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
		case *ast.FuncLit:
			// Function literals are separate accounting scopes.
			return false
		}
		return true
	})
	return loops
}

// innermostLoop returns the innermost loop whose source range encloses n.
func innermostLoop(loops []ast.Stmt, n ast.Node) ast.Stmt {
	var best ast.Stmt
	for _, l := range loops {
		if l.Pos() <= n.Pos() && n.End() <= l.End() && l != n {
			if best == nil || (best.Pos() <= l.Pos() && l.End() <= best.End()) {
				best = l
			}
		}
	}
	return best
}

// innermostLoopFor is innermostLoop for a loop itself: its enclosing
// loop, nil when it is outermost.
func innermostLoopFor(loops []ast.Stmt, loop ast.Stmt) ast.Stmt {
	return innermostLoop(loops, loop)
}

// loopCallsAdjacency reports whether the loop's subtree (or its range
// expression) calls a graph adjacency primitive or ranges over one.
func loopCallsAdjacency(pass *Pass, loop ast.Stmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := methodCall(pass.Info, call); ok && recv == "Graph" && adjacencyMethods[method] {
			found = true
		}
		return !found
	})
	return found
}

// chargesIn reports which Budget charges appear in scope's subtree.
func chargesIn(pass *Pass, scope ast.Node) (work, path bool) {
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := methodCall(pass.Info, call); ok && recv == "Budget" {
			switch method {
			case "ChargeWork":
				work = true
			case "ChargePath":
				path = true
			}
		}
		return !(work && path)
	})
	return work, path
}
