package lint

import (
	"go/ast"
	"go/types"
)

// SpanEnd checks the trace-span lifetime discipline around obs: every
// span opened with Trace.Start or Span.Start must be provably ended —
// an open span misreports its duration (Tree() clamps it to render
// time) and, on the slow-query path, keeps child annotations racing
// with the log line.
//
// For every `sp := tr.Start(...)` / `sp := parent.Start(...)` (receiver
// type named Trace or Span) the analyzer accepts, in the enclosing
// function:
//
//   - defer sp.End() — the canonical scoped span;
//   - sp.End() inside a deferred function literal — the annotate-then-
//     end pattern (defer func() { sp.SetInt(...); sp.End() }()), which
//     also covers a defer inside a goroutine the span's work runs on;
//   - use of sp.End as a value — ownership transfer of the end
//     capability (e.g. returning it as a cleanup func);
//   - sp returned, stored into a struct field / composite literal, or
//     passed to another call — ownership transfer of the whole span
//     (the holder's completion path owns the End; the server's cursor
//     root span is the canonical case).
//
// A plain, non-deferred sp.End() is flagged: an early return or panic
// between Start and End leaves the span open. A Start whose result is
// discarded is always flagged.
//
// Method calls on the span itself (sp.SetInt, sp.AddInt, sp.Start for a
// child) are annotations, not transfers — they never discharge the End
// obligation.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc: "every obs Trace.Start/Span.Start span must be ended on all paths: " +
		"defer End (directly or in a deferred closure), or transfer ownership of the span",
	Run: spanEnd,
}

// span is one opened span bound to a variable of a function.
type span struct {
	pass *Pass
	id   *ast.Ident
	obj  types.Object
}

// usesVar reports whether e is an identifier use of the span variable.
func (s *span) usesVar(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && s.pass.Info.Uses[id] == s.obj
}

// endValue reports whether e is `sp.End` on the span variable sp.
func (s *span) endValue(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && s.usesVar(sel.X) && sel.Sel.Name == "End"
}

func spanEnd(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkSpans(pass, fn)
			}
		}
	}
	return nil
}

func checkSpans(pass *Pass, fn *ast.FuncDecl) {
	var ids []*ast.Ident
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := methodCall(pass.Info, call)
		if !ok || method != "Start" || (recv != "Trace" && recv != "Span") {
			return true
		}
		id, bound := binding(fn.Body, call)
		if !bound {
			pass.Reportf(call.Pos(), "%s.Start opens a span but the result is dropped; the span can never be ended", recv)
			return true
		}
		if id != nil {
			ids = append(ids, id)
		}
		return true
	})

	for _, id := range ids {
		// Spans may bind via := (Defs) or land in a pre-declared var
		// (Uses) — the conditional pattern `var root *obs.Span; if traced
		// { root = tr.Start(...) }`.
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		deferred, transferred, plain := (&span{pass: pass, id: id, obj: obj}).scan(fn.Body)
		switch {
		case deferred, transferred:
			// Ended here, or ownership moved and the holder ends it.
		case plain:
			pass.Reportf(id.Pos(), "span %[1]s is ended without defer: an early return or panic between Start and End leaves the span open; use defer %[1]s.End() or transfer ownership", id.Name)
		default:
			pass.Reportf(id.Pos(), "span %[1]s is never ended: defer %[1]s.End() or transfer ownership of the span", id.Name)
		}
	}
}

// scan classifies how the span is used in body.
func (s *span) scan(body *ast.BlockStmt) (deferred, transferred, plain bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if s.endValue(n.Call.Fun) {
				deferred = true
				return false
			}
			// The End inside the deferred closure discharges the
			// obligation; skip the subtree so it is not also counted as a
			// plain End.
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok && s.endsWithin(fl) {
				deferred = true
				return false
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && s.usesVar(sel.X) {
				if sel.Sel.Name == "End" {
					plain = true
				}
				return true
			}
			for _, arg := range n.Args {
				if s.usesVar(arg) || s.endValue(arg) {
					transferred = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if s.usesVar(r) || s.endValue(r) {
					transferred = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if s.endValue(r) {
					transferred = true
				}
				if s.usesVar(r) && !definesIdent(n, s.id) {
					transferred = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if s.usesVar(e) || s.endValue(e) {
					transferred = true
				}
			}
		}
		return true
	})
	return deferred, transferred, plain
}

// endsWithin reports whether the function literal calls the span's End
// anywhere in its body.
func (s *span) endsWithin(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && s.endValue(call.Fun) {
			found = true
		}
		return !found
	})
	return found
}

// definesIdent reports whether assign's LHS contains exactly id (its
// defining := statement).
func definesIdent(assign *ast.AssignStmt, id *ast.Ident) bool {
	for _, l := range assign.Lhs {
		if li, ok := l.(*ast.Ident); ok && li == id {
			return true
		}
	}
	return false
}

// binding locates how call's result is bound: the binding identifier
// (nil for _), and bound=false when the result is dropped as a bare
// expression statement. A result returned, passed along, or placed
// directly in a composite literal counts as bound (ownership transfer).
func binding(body *ast.BlockStmt, call *ast.CallExpr) (id *ast.Ident, bound bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if r == call && i < len(n.Lhs) {
					bound = true
					if li, ok := n.Lhs[i].(*ast.Ident); ok && li.Name != "_" {
						id = li
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if v == call && i < len(n.Names) {
					bound = true
					if n.Names[i].Name != "_" {
						id = n.Names[i]
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if r == call {
					bound = true
				}
			}
		case *ast.CallExpr:
			if n == call {
				return true
			}
			for _, a := range n.Args {
				if a == call {
					bound = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if e == call {
					bound = true
				}
			}
		}
		return true
	})
	return id, bound
}
