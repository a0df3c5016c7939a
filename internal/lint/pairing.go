package lint

import (
	"go/ast"
	"go/types"
)

// pairing is one "acquired ⇒ released on all paths" discipline, the
// analysis behind spanend. For every value obtained from
// the acquire method on one of the receiver types, the enclosing
// function must either release it with a deferred call of the release
// method or transfer ownership: return the value or its release method
// value, store it in a composite literal or another variable, or pass
// it to a call. Method calls on the value itself (other than release)
// are uses, never transfers.
type pairing struct {
	acquire   string
	receivers []string
	release   string
	// releaseInClosure counts a release inside a deferred function
	// literal (defer func() { …; v.End() }()) as deferred.
	releaseInClosure bool
	// Diagnostics. dropped is formatted with the receiver type name, the
	// others with the handle's name (use %[1]s to repeat it).
	dropped, plainRelease, unreleased string
}

// handle is one acquired value bound to a variable of a function.
type handle struct {
	pass *Pass
	id   *ast.Ident
	obj  types.Object
}

// usesVar reports whether e is an identifier use of the handle variable.
func (h *handle) usesVar(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && h.pass.Info.Uses[id] == h.obj
}

// methodValue reports whether e is `v.name` on the handle variable v.
func (h *handle) methodValue(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && h.usesVar(sel.X) && sel.Sel.Name == name
}

func (p *pairing) run(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				p.check(pass, fn)
			}
		}
	}
	return nil
}

func (p *pairing) check(pass *Pass, fn *ast.FuncDecl) {
	var ids []*ast.Ident
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := methodCall(pass.Info, call)
		if !ok || method != p.acquire || !p.receiver(recv) {
			return true
		}
		id, bound := binding(fn.Body, call)
		if !bound {
			pass.Reportf(call.Pos(), p.dropped, recv)
			return true
		}
		if id != nil {
			ids = append(ids, id)
		}
		return true
	})

	for _, id := range ids {
		// Handles may bind via := (Defs) or land in a pre-declared var
		// (Uses) — the conditional pattern `var root *obs.Span; if traced
		// { root = tr.Start(...) }`.
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		h := &handle{pass: pass, id: id, obj: obj}
		deferred, transferred, plain := p.scan(h, fn.Body)
		switch {
		case deferred, transferred:
			// Released here, or ownership moved and the holder releases.
		case plain:
			pass.Reportf(id.Pos(), p.plainRelease, id.Name)
		default:
			pass.Reportf(id.Pos(), p.unreleased, id.Name)
		}
	}
}

func (p *pairing) receiver(name string) bool {
	for _, r := range p.receivers {
		if r == name {
			return true
		}
	}
	return false
}

// scan classifies how the handle is used in body.
func (p *pairing) scan(h *handle, body *ast.BlockStmt) (deferred, transferred, plain bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if h.methodValue(n.Call.Fun, p.release) {
				deferred = true
				return false
			}
			// The release inside the deferred closure discharges the
			// obligation; skip the subtree so it is not also counted as a
			// plain release.
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok && p.releaseInClosure && p.releasesWithin(h, fl) {
				deferred = true
				return false
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && h.usesVar(sel.X) {
				if sel.Sel.Name == p.release {
					plain = true
				}
				return true
			}
			for _, arg := range n.Args {
				if h.usesVar(arg) || h.methodValue(arg, p.release) {
					transferred = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if h.usesVar(r) || h.methodValue(r, p.release) {
					transferred = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if h.methodValue(r, p.release) {
					transferred = true
				}
				if h.usesVar(r) && !definesIdent(n, h.id) {
					transferred = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if h.usesVar(e) || h.methodValue(e, p.release) {
					transferred = true
				}
			}
		}
		return true
	})
	return deferred, transferred, plain
}

// releasesWithin reports whether the function literal calls the handle's
// release method anywhere in its body.
func (p *pairing) releasesWithin(h *handle, fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && h.methodValue(call.Fun, p.release) {
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
