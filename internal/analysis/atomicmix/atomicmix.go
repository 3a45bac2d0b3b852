// Package atomicmix flags calls to the package-level functions of
// sync/atomic (AddInt64, LoadUint32, CompareAndSwapPointer, …).
//
// A field handed to those functions is still an ordinary field: one plain
// read or write of it elsewhere races with the atomic updates, and the race
// detector only sees it if a test schedules the two together. The typed
// atomics (atomic.Int64 and friends) cannot be accessed plainly at all, so
// requiring them makes "no field is accessed both atomically and plainly"
// hold by construction, in every package, with nothing to track across
// package boundaries. A justified call carries a `//lint:atomicmix <reason>`
// marker.
package atomicmix

import (
	"go/ast"
	"go/types"

	"rankcube/internal/analysis/framework"
)

// Marker is the justification marker accepted on package-level atomic calls.
const Marker = "atomicmix"

// Analyzer flags calls to sync/atomic's package-level functions.
var Analyzer = &framework.Analyzer{
	Name: "atomicmix",
	Doc: "flags calls to sync/atomic's package-level functions: use atomic.Int64 and friends, " +
		"which cannot be mixed with plain accesses, or mark //lint:atomicmix <reason>",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFunc(pass, call.Fun) || pass.Marked(call, Marker) {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to a sync/atomic package-level function: use atomic.Int64 and friends, or mark //lint:atomicmix <reason>")
			return true
		})
	}
	return nil
}

// isAtomicFunc reports whether fun names a package-level function of
// sync/atomic, qualified or dot-imported.
func isAtomicFunc(pass *framework.Pass, fun ast.Expr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
		fn.Type().(*types.Signature).Recv() == nil
}
