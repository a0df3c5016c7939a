package lint

import (
	"go/ast"
	"go/types"
)

// EpochPin checks the epoch-pinning discipline around graph.Store: a
// Snapshot() pins an MVCC epoch, and the pin must be provably released —
// a leaked pin keeps dead epochs (and their COW overlays) alive forever.
//
// For every `sn := store.Snapshot()` (receiver type named Store) the
// analyzer accepts, in the enclosing function:
//
//   - defer sn.Release() — the canonical scoped pin;
//   - use of sn.Release as a value — ownership transfer of the release
//     capability (e.g. returning it as a cleanup func, the engine's
//     pin() pattern);
//   - sn returned, stored into a struct field / composite literal, or
//     passed to another call — ownership transfer of the whole handle
//     (the holder's Close/Release path owns the unpin).
//
// A plain, non-deferred sn.Release() call is flagged: an early return or
// panic between Snapshot and Release leaks the pin. A Snapshot whose
// result is discarded is always flagged.
//
// It additionally flags pinned-graph escape: when the pin is scoped to
// the function (defer sn.Release()), a value obtained from sn.Graph()
// must not be returned — after the function returns, the epoch may be
// compacted or freed under the escaping reference.
var EpochPin = &Analyzer{
	Name: "epochpin",
	Doc: "every graph.Store.Snapshot pin must be released on all paths: " +
		"defer Release, or transfer ownership of the handle; pinned graphs must not outlive their pin",
	Run: epochPin.run,
}

var epochPin = &pairing{
	acquire:      "Snapshot",
	receivers:    []string{"Store"},
	release:      "Release",
	dropped:      "%s.Snapshot pins an epoch but the handle is dropped; the pin can never be released",
	plainRelease: "pin %[1]s is released without defer: an early return or panic between Snapshot and Release leaks the epoch; use defer %[1]s.Release() or transfer ownership",
	unreleased:   "pin %[1]s is never released: defer %[1]s.Release() or transfer ownership of the handle",
	scoped:       checkGraphEscape,
}

// checkGraphEscape flags returns of sn.Graph()-derived values when the
// pin is function-scoped (Release deferred here).
func checkGraphEscape(h *handle, fn *ast.FuncDecl) {
	// sn.Graph() call sites and the locals assigned from them.
	graphCalls := make(map[ast.Expr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && h.methodValue(call.Fun, "Graph") {
			graphCalls[call] = true
		}
		return true
	})
	graphObjs := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, r := range as.Rhs {
			if !graphCalls[r] || i >= len(as.Lhs) {
				continue
			}
			if li, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := h.pass.Info.Defs[li]; obj != nil {
					graphObjs[obj] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			escapes := graphCalls[r]
			if ri, ok := r.(*ast.Ident); ok && graphObjs[h.pass.Info.Uses[ri]] {
				escapes = true
			}
			if escapes {
				h.pass.Reportf(r.Pos(), "graph of pin %s escapes its pin scope: Release is deferred in this function, so the returned graph may be compacted under the caller", h.id.Name)
			}
		}
		return true
	})
}
