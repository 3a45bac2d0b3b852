// Package ctxflow enforces context discipline in the query engines.
//
// The operation's execution context (stats.Governed) is the engines' only
// cancellation and budget mechanism, and it sees exactly the context the
// caller passed in.
// Two bug shapes silently disconnect a query from its caller:
//
//   - minting a fresh context (context.Background / context.TODO) while a
//     caller-supplied ctx is in scope, so downstream work ignores the
//     caller's deadline; and
//   - accepting a ctx parameter and never consulting it, so the signature
//     promises cancellation the implementation does not deliver.
//
// The analyzer flags both. The one blessed Background() shape is the
// documented nil-fallback, a plain assignment to an existing context
// variable (`if ctx == nil { ctx = context.Background() }`): it replaces a
// context the caller declined to provide rather than discarding one.
// Library packages — the public root package rankcube, every entry point of
// which takes the caller's ctx, and rankcube/internal/... — may not mint
// fresh contexts at all outside that shape; only programs (commands,
// examples), which own their root context, may.
//
// A third bug shape hides a context in a struct: a context.Context struct
// field outlives the call that stored it, so cancellation silently follows
// the stale stashed context instead of the live caller. Library packages
// may not declare such fields without a `//lint:ctxfield <reason>` marker
// naming why the stash is scoped correctly (stats.Counters, one
// operation's carrier, is the exemplar). Reading a stashed context while a
// caller's ctx parameter is in scope is flagged unconditionally — that is
// the stale-context bug in the act, and the fix is to use the parameter.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rankcube/internal/analysis/framework"
)

// Analyzer enforces context threading in *Ctx entry points and library
// packages.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc: "forbids context.Background()/context.TODO() where a caller context is in scope " +
		"(or anywhere in library packages, nil-fallback assignments excepted), flags " +
		"ctx parameters that are accepted but never consulted, and flags contexts " +
		"stashed in struct fields (mark //lint:ctxfield <reason>) or read from a field " +
		"while a caller ctx is in scope",
	Run: run,
}

// FieldMarker is the justification marker for a context.Context struct
// field whose lifetime is argued sound (e.g. a strictly per-query carrier).
const FieldMarker = "ctxfield"

const (
	rootPath      = "rankcube"
	libraryPrefix = rootPath + "/internal/"
)

func run(pass *framework.Pass) error {
	library := pass.Pkg.Path() == rootPath || strings.HasPrefix(pass.Pkg.Path(), libraryPrefix)
	for _, file := range pass.Files {
		checkMints(pass, file, library)
		checkDroppedParams(pass, file)
		if library {
			checkCtxFields(pass, file)
		}
		checkFieldReads(pass, file)
	}
	return nil
}

// checkCtxFields flags context.Context struct fields in library packages:
// a stashed context outlives the call that stored it. The //lint:ctxfield
// marker on the field documents the cases whose lifetime is sound.
func checkCtxFields(pass *framework.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok || !framework.IsNamed(tv.Type, "context", "Context") {
				continue
			}
			if pass.Marked(field, FieldMarker) {
				continue
			}
			pass.Reportf(field.Pos(),
				"context.Context stored in a struct field outlives the call that stored it: pass ctx as a parameter, or mark //lint:ctxfield <reason>")
		}
		return true
	})
}

// checkFieldReads flags reads of a stashed context field inside a function
// that has its own ctx parameter: the live caller context must win over
// whatever was stored earlier. Writes (stashing the parameter) are the
// field's purpose and stay allowed.
func checkFieldReads(pass *framework.Pass, file *ast.File) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal ||
			!framework.IsNamed(selection.Obj().Type(), "context", "Context") {
			return true
		}
		if isAssignTarget(stack, sel) || enclosingCtxParam(pass, stack) == nil {
			return true
		}
		if pass.Marked(sel, FieldMarker) {
			return true
		}
		pass.Reportf(sel.Pos(),
			"reading stashed context field %s while a caller ctx parameter is in scope: use the parameter (the stash may be stale), or mark //lint:ctxfield <reason>",
			types.ExprString(sel))
		return true
	})
}

// isAssignTarget reports whether sel is a left-hand side of its enclosing
// assignment (a write to the field, not a read of the stash).
func isAssignTarget(stack []ast.Node, sel *ast.SelectorExpr) bool {
	if len(stack) < 2 {
		return false
	}
	assign, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range assign.Lhs {
		if ast.Unparen(lhs) == sel {
			return true
		}
	}
	return false
}

// checkMints walks file tracking the enclosing-node stack and reports
// context.Background/TODO calls that discard an in-scope caller context
// (or, in library packages, mint one outside the nil-fallback shape).
func checkMints(pass *framework.Pass, file *ast.File, library bool) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || !isContextMint(pass, call) {
			return true
		}
		name := ast.Unparen(call.Fun).(*ast.SelectorExpr).Sel.Name
		if ctxParam := enclosingCtxParam(pass, stack); ctxParam != nil {
			if !isNilFallback(pass, stack, call, func(obj types.Object) bool { return obj == ctxParam }) {
				pass.Reportf(call.Pos(),
					"context.%s() discards the in-scope ctx parameter %q: thread the caller's context through", name, ctxParam.Name())
			}
			return true
		}
		if library && !isNilFallback(pass, stack, call, func(obj types.Object) bool { return isContextVar(obj) }) {
			pass.Reportf(call.Pos(),
				"context.%s() in a library package: accept a ctx from the caller instead of minting one", name)
		}
		return true
	})
}

// isContextMint reports whether call is context.Background() or
// context.TODO(), resolved through the type info (aliases included).
func isContextMint(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// enclosingCtxParam returns the context.Context parameter of the innermost
// enclosing function that declares one, or nil.
func enclosingCtxParam(pass *framework.Pass, stack []ast.Node) *types.Var {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isContextVar(obj) {
					return obj
				}
			}
		}
	}
	return nil
}

// isNilFallback reports whether call is the right-hand side of a plain
// assignment (`=`, not `:=`) to a variable accepted by ok — the
// conventional `if ctx == nil { ctx = context.Background() }` shape.
func isNilFallback(pass *framework.Pass, stack []ast.Node, call *ast.CallExpr, ok func(types.Object) bool) bool {
	if len(stack) < 2 {
		return false
	}
	assign, isAssign := stack[len(stack)-2].(*ast.AssignStmt)
	if !isAssign || assign.Tok != token.ASSIGN {
		return false
	}
	for i, rhs := range assign.Rhs {
		if ast.Unparen(rhs) != call || i >= len(assign.Lhs) {
			continue
		}
		if ident, isIdent := assign.Lhs[i].(*ast.Ident); isIdent && ok(pass.TypesInfo.Uses[ident]) {
			return true
		}
	}
	return false
}

// isContextVar reports whether obj is a variable of type context.Context.
func isContextVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && framework.IsNamed(v.Type(), "context", "Context")
}

// checkDroppedParams flags named context parameters that the function body
// never consults.
func checkDroppedParams(pass *framework.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if !ok || !isContextVar(obj) {
					continue
				}
				if !usesObject(pass, fn.Body, obj) {
					pass.Reportf(name.Pos(),
						"ctx parameter %q is accepted but never consulted: thread it into governed calls or rename it _", name.Name)
				}
			}
		}
	}
	// Function literals assigned to variables share the same hazard.
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
				if !ok || !isContextVar(obj) {
					continue
				}
				if !usesObject(pass, lit.Body, obj) {
					pass.Reportf(name.Pos(),
						"ctx parameter %q is accepted but never consulted: thread it into governed calls or rename it _", name.Name)
				}
			}
		}
		return true
	})
}

// usesObject reports whether any identifier under node resolves to obj.
func usesObject(pass *framework.Pass, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if ident, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[ident] == obj {
			found = true
		}
		return !found
	})
	return found
}
