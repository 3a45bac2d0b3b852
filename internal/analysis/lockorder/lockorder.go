// Package lockorder checks the one part of the concurrent-serving lock
// discipline around internal/guard that Go's types cannot say: the release
// closure returned by guard.AcquireShared or guard.LockExclusive must be
// consumed — deferred, invoked, stored, returned or passed along. A dropped
// release keeps the serving slots and locks held for the life of the process.
//
// The rest holds by construction. A single control is only ever taken
// through guard.Shared or guard.Exclusive, which defer the release
// themselves, so an abort (engine faults travel as panics) cannot leave a
// hold behind; several controls are only ever taken through the two helpers
// above, which sort by the global ordering ID. What neither this analyzer nor
// the types catch is nesting across frames: a function that takes a control
// while a caller up the stack already holds another escapes the global order
// unseen.
//
// Justified exceptions carry a `//lint:lockorder <reason>` marker.
package lockorder

import (
	"go/ast"
	"go/types"

	"rankcube/internal/analysis/framework"
)

const guardPath = "rankcube/internal/guard"

// Marker is the justification marker accepted on exempted acquisitions.
const Marker = "lockorder"

// Analyzer checks that the guard helpers' release closures are consumed.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc:  "release closures returned by guard.AcquireShared/LockExclusive must be consumed",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			checkReleaseClosures(pass, body)
		}
	}
	return nil
}

// functionBodies collects every function body in file — declarations and
// literals alike. Each body is analyzed as its own frame: a deferred
// release inside a closure runs when the closure returns, so a release must
// be consumed in the frame that acquired it.
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				bodies = append(bodies, fn.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, fn.Body)
		}
		return true
	})
	return bodies
}

// inspectFrame walks body, skipping nested function literals (they are
// separate frames; functionBodies collects them independently).
func inspectFrame(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return f(n)
	})
}

// checkReleaseClosures reports guard.AcquireShared and guard.LockExclusive
// calls whose release closure this frame never consumes.
func checkReleaseClosures(pass *framework.Pass, body *ast.BlockStmt) {
	inspectFrame(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := guardHelper(pass, call)
		if name == "" || pass.Marked(call, Marker) {
			return true
		}
		if releaseConsumed(pass, body, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"the release closure returned by guard.%s is never consumed: every acquisition must be released on all paths (defer it), or mark //lint:lockorder <reason>", name)
		return true
	})
}

// guardHelper resolves call to guard.AcquireShared or guard.LockExclusive.
func guardHelper(pass *framework.Pass, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != guardPath {
		return ""
	}
	if fn.Name() == "AcquireShared" || fn.Name() == "LockExclusive" {
		return fn.Name()
	}
	return ""
}

// releaseConsumed reports whether the release closure produced by call is
// used: invoked in place (`defer guard.LockExclusive(x)()` or an immediate
// call), or bound to a variable that is referenced again anywhere in the
// frame (deferred, invoked, returned, stored, or passed along — any later
// reference transfers responsibility, matching how OpenScan hands its
// release to the scanner it returns).
func releaseConsumed(pass *framework.Pass, body *ast.BlockStmt, call *ast.CallExpr) bool {
	consumed := false
	inspectFrame(body, func(n ast.Node) bool {
		if consumed {
			return false
		}
		switch parent := n.(type) {
		case *ast.CallExpr:
			// guard.LockExclusive(x)() — the helper call is itself invoked —
			// or the release is passed straight to another function.
			if ast.Unparen(parent.Fun) == call {
				consumed = true
			}
			for _, arg := range parent.Args {
				if ast.Unparen(arg) == call {
					consumed = true
				}
			}
		case *ast.KeyValueExpr:
			// Stored directly into a struct literal (the OpenScan shape).
			if ast.Unparen(parent.Value) == call {
				consumed = true
			}
		case *ast.AssignStmt:
			for i, rhs := range parent.Rhs {
				if ast.Unparen(rhs) != call {
					continue
				}
				// Single call, possibly multi-value: the release is the
				// first LHS. A blank identifier drops it.
				if i < len(parent.Lhs) {
					if obj := lhsObject(pass, parent.Lhs[i]); obj != nil {
						consumed = referencedAgain(pass, body, obj, parent)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range parent.Results {
				if ast.Unparen(res) == call {
					consumed = true
				}
			}
		}
		return true
	})
	return consumed
}

// lhsObject resolves an assignment target identifier to its object.
func lhsObject(pass *framework.Pass, lhs ast.Expr) types.Object {
	ident, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || ident.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[ident]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[ident]
}

// referencedAgain reports whether obj is referenced anywhere in the frame
// other than its binding assignment.
func referencedAgain(pass *framework.Pass, body *ast.BlockStmt, obj types.Object, binding *ast.AssignStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == binding {
			return !found && n != binding
		}
		if ident, ok := n.(*ast.Ident); ok && (pass.TypesInfo.Uses[ident] == obj) {
			found = true
		}
		return !found
	})
	return found
}
