// Package scanleak makes sure every open scan reaches Close.
//
// A GovernedScanner holds the cube's shared serving lock and an admission
// slot from OpenScan until Close — that is the contract that lets
// maintenance wait for open scans instead of racing them. A scanner that
// never reaches Close therefore pins a serving slot for the life of the
// process: Drain blocks forever, the admission gate leaks capacity, and
// exclusive maintenance starves.
//
// The analyzer tracks every value of type *rankcube.GovernedScanner
// produced by a call (OpenScan, or any future constructor) and
// requires, within the creating function, one of:
//
//   - a deferred Close (safe on every return and panic path);
//   - a direct Close with no return statement between creation and the
//     close — early returns inside the error-check branch of the creating
//     call (`if err != nil { return … }`) are exempt, since the scanner is
//     nil exactly there;
//   - an escape: returning the scanner, storing it, or passing it along
//     transfers the Close obligation to the receiver.
//
// Discarding the scanner outright is always flagged. Justified exceptions
// carry a `//lint:scanleak <reason>` marker.
package scanleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"rankcube/internal/analysis/framework"
)

const rootPath = "rankcube"

// Marker is the justification marker accepted on exempted scans.
const Marker = "scanleak"

// Analyzer flags open scans that cannot reach Close.
var Analyzer = &framework.Analyzer{
	Name: "scanleak",
	Doc: "every *rankcube.GovernedScanner must reach Close on all paths: an open " +
		"scan holds a serving slot and an unclosed one starves Drain and maintenance",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			checkFrame(pass, body)
		}
	}
	return nil
}

// functionBodies collects every function body in file, declarations and
// literals alike; each is checked as its own frame.
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

// inspectFrame walks body, skipping nested function literals.
func inspectFrame(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return f(n)
	})
}

// isScannerType reports whether t is *rankcube.GovernedScanner (or the
// bare named type).
func isScannerType(t types.Type) bool {
	return t != nil && framework.IsNamed(t, rootPath, "GovernedScanner")
}

// scannerResult returns the index of call's *GovernedScanner result, or -1.
func scannerResult(pass *framework.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isScannerType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if isScannerType(t) {
			return 0
		}
	}
	return -1
}

func checkFrame(pass *framework.Pass, body *ast.BlockStmt) {
	inspectFrame(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			// A scanner-producing call whose results are dropped on the
			// floor can never be closed.
			if call, ok := stmt.X.(*ast.CallExpr); ok && scannerResult(pass, call) >= 0 {
				if !pass.Marked(call, Marker) {
					pass.Reportf(call.Pos(),
						"open scan is discarded without Close: it holds a serving slot until Close and will starve Drain (assign it and close it, or mark //lint:scanleak <reason>)")
				}
			}
		case *ast.AssignStmt:
			checkBinding(pass, body, stmt)
		}
		return true
	})
}

// checkBinding inspects one `sc, err := …OpenScan(…)`-shaped assignment.
func checkBinding(pass *framework.Pass, body *ast.BlockStmt, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	idx := scannerResult(pass, call)
	if idx < 0 || pass.Marked(call, Marker) {
		return
	}
	if idx >= len(assign.Lhs) {
		return
	}
	scIdent, ok := ast.Unparen(assign.Lhs[idx]).(*ast.Ident)
	if !ok || scIdent.Name == "_" {
		pass.Reportf(call.Pos(),
			"open scan is assigned to the blank identifier: it holds a serving slot until Close and will starve Drain (close it, or mark //lint:scanleak <reason>)")
		return
	}
	sc := bindingObject(pass, scIdent)
	if sc == nil {
		return
	}
	errObj := errBinding(pass, assign, idx)

	uses := collectUses(pass, body, sc, assign)
	switch disposition(pass, body, assign, errObj, uses) {
	case closed, escaped:
		return
	case leakOnReturn:
		pass.Reportf(call.Pos(),
			"open scan %q may leak: a return path between OpenScan and Close skips the release of its serving slot (defer %s.Close(), or mark //lint:scanleak <reason>)",
			scIdent.Name, scIdent.Name)
	case neverClosed:
		pass.Reportf(call.Pos(),
			"open scan %q never reaches Close: it holds a serving slot until Close and will starve Drain (defer %s.Close(), or mark //lint:scanleak <reason>)",
			scIdent.Name, scIdent.Name)
	}
}

// bindingObject resolves the scanner identifier to its object.
func bindingObject(pass *framework.Pass, ident *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[ident]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[ident]
}

// errBinding returns the error variable bound alongside the scanner, if
// any — returns inside its `if err != nil` check are nil-scanner paths.
func errBinding(pass *framework.Pass, assign *ast.AssignStmt, scannerIdx int) types.Object {
	for i, lhs := range assign.Lhs {
		if i == scannerIdx {
			continue
		}
		ident, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || ident.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[ident]
		if obj == nil {
			obj = pass.TypesInfo.Uses[ident]
		}
		if obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
			return obj
		}
	}
	return nil
}

// use is one reference to the scanner after its binding.
type use struct {
	ident    *ast.Ident
	closes   bool // sc.Close() — receiver of a Close call
	deferred bool // inside a DeferStmt (any depth within this frame)
	escapes  bool // returned, stored, or passed along
}

// collectUses gathers every reference to sc in the frame after binding.
func collectUses(pass *framework.Pass, body *ast.BlockStmt, sc types.Object, binding *ast.AssignStmt) []use {
	var uses []use
	var deferDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == binding {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			// A closure over the scanner (e.g. a cleanup func) counts as an
			// escape: the obligation moved into the closure.
			escapesInto(pass, n, sc, &uses)
			return false
		}
		if def, ok := n.(*ast.DeferStmt); ok {
			deferDepth++
			ast.Inspect(def.Call, walk)
			deferDepth--
			return false
		}
		ident, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[ident] != sc {
			return true
		}
		u := use{ident: ident, deferred: deferDepth > 0}
		uses = append(uses, u)
		return true
	}
	ast.Inspect(body, walk)

	// Classify each reference by its syntactic context.
	for i := range uses {
		classifyUse(pass, body, &uses[i])
	}
	return uses
}

// escapesInto records an escape-shaped use when the closure references sc.
func escapesInto(pass *framework.Pass, lit ast.Node, sc types.Object, uses *[]use) {
	ast.Inspect(lit, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[ident] == sc {
			*uses = append(*uses, use{ident: ident, escapes: true})
			return false
		}
		return true
	})
}

// classifyUse decides whether u closes the scanner or lets it escape, by
// locating the reference's immediate syntactic context.
func classifyUse(pass *framework.Pass, body *ast.BlockStmt, u *use) {
	path := pathTo(body, u.ident)
	for i := len(path) - 2; i >= 0; i-- {
		switch parent := path[i].(type) {
		case *ast.SelectorExpr:
			// sc.Close() — only when the selector is actually called.
			if parent.Sel.Name == "Close" && i > 0 {
				if call, ok := path[i-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == parent {
					u.closes = true
					return
				}
			}
			// sc.Next(), sc.Err(), field reads: plain uses.
			return
		case *ast.CallExpr:
			// Passed as an argument (the Fun case was handled above).
			u.escapes = true
			return
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt, *ast.IndexExpr:
			u.escapes = true
			return
		case *ast.AssignStmt:
			// Reassigned somewhere else (field, map entry, other variable):
			// the obligation moves with it.
			for _, rhs := range parent.Rhs {
				if containsNode(rhs, u.ident) {
					u.escapes = true
					return
				}
			}
			return
		case *ast.UnaryExpr:
			if parent.Op == token.AND {
				u.escapes = true
				return
			}
		}
	}
}

// disposition classifies the scanner's fate in this frame.
type fate int

const (
	neverClosed fate = iota
	leakOnReturn
	closed
	escaped
)

func disposition(pass *framework.Pass, body *ast.BlockStmt, binding *ast.AssignStmt, errObj types.Object, uses []use) fate {
	var firstClose *use
	for i := range uses {
		u := &uses[i]
		if u.escapes {
			return escaped
		}
		if u.closes && u.deferred {
			return closed
		}
		if u.closes && firstClose == nil {
			firstClose = u
		}
	}
	if firstClose == nil {
		return neverClosed
	}
	// A direct (non-deferred) Close: any return statement lexically between
	// the binding and the close leaks the slot — except returns on the
	// binding's own error path, where the scanner is nil.
	if leaky := returnBetween(pass, body, binding.End(), firstClose.ident.Pos(), errObj); leaky {
		return leakOnReturn
	}
	return closed
}

// returnBetween reports whether a return statement between lo and hi can
// see a live scanner: returns inside an `if` whose condition consults the
// binding's error variable are exempt.
func returnBetween(pass *framework.Pass, body *ast.BlockStmt, lo, hi token.Pos, errObj types.Object) bool {
	leaky := false
	var errGuardDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if leaky {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if ifStmt, ok := n.(*ast.IfStmt); ok && errObj != nil && usesObject(pass, ifStmt.Cond, errObj) {
			if ifStmt.Init != nil {
				ast.Inspect(ifStmt.Init, walk)
			}
			errGuardDepth++
			ast.Inspect(ifStmt.Body, walk)
			errGuardDepth--
			if ifStmt.Else != nil {
				ast.Inspect(ifStmt.Else, walk)
			}
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		// ret.End() < hi: a return whose own expression performs the close
		// (`return sc.Close()`) spans hi and is the close, not a leak.
		if ret.Pos() > lo && ret.End() < hi && errGuardDepth == 0 {
			leaky = true
		}
		return true
	}
	ast.Inspect(body, walk)
	return leaky
}

// usesObject reports whether any identifier under node resolves to obj.
func usesObject(pass *framework.Pass, node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[ident] == obj {
			found = true
		}
		return !found
	})
	return found
}

// pathTo returns the chain of nodes from root down to target (inclusive),
// or nil when target is not under root.
func pathTo(root ast.Node, target ast.Node) []ast.Node {
	var path []ast.Node
	var found bool
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if found {
			return false
		}
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		if n == target {
			found = true
			return false
		}
		return true
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		return walk(n)
	})
	if !found {
		return nil
	}
	return path
}

// containsNode reports whether target appears under root.
func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
