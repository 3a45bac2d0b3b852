// Package governedio keeps every block access on the governed pager path.
//
// Budget and cancellation enforcement live in the pager: Store.Read /
// Store.Touch (and the Buffer wrappers) charge each access to the query's
// stats.Counters, which aborts on a tripped budget or a
// canceled context. Two shapes silently erode that enforcement:
//
//   - Store.ReadRaw, which returns a payload without charging any read —
//     legitimate only for size accounting and maintenance bookkeeping; and
//   - passing a nil *stats.Counters into a governed accessor, which charges
//     the read to nobody (Counters methods are nil-safe by design for
//     uninstrumented build paths). This covers both the pager accessors and
//     hindex.NewAccessor, whose Accessor routes every subsequent node visit
//     through the counters it was constructed with.
//
// Outside internal/pager and internal/hindex themselves, these require a
// `//lint:ungoverned <reason>` marker on or directly above the call, so
// every ungoverned access is individually justified and reviewable.
package governedio

import (
	"go/ast"
	"go/types"

	"rankcube/internal/analysis/framework"
)

const (
	pagerPath  = "rankcube/internal/pager"
	hindexPath = "rankcube/internal/hindex"
)

// Marker is the justification marker accepted on ungoverned accesses.
const Marker = "ungoverned"

// Analyzer flags pager accesses that bypass governed accounting.
var Analyzer = &framework.Analyzer{
	Name: "governedio",
	Doc: "flags Store.ReadRaw calls, nil-Counters reads, and nil-Counters " +
		"hindex accessors outside internal/pager and internal/hindex: block " +
		"accesses must be charged through the governed accessors unless marked " +
		"//lint:ungoverned",
	Run: run,
}

// governed names the accessor methods that charge reads, per receiver type.
var governed = map[string]map[string]bool{
	"Store":  {"Read": true, "Touch": true},
	"Buffer": {"Read": true, "Touch": true},
}

func run(pass *framework.Pass) error {
	if pass.Pkg.Path() == pagerPath || pass.Pkg.Path() == hindexPath {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isHindexNewAccessor(pass, call) {
				if len(call.Args) == 2 && isNil(pass, call.Args[1]) && !pass.Marked(call, Marker) {
					pass.Reportf(call.Pos(),
						"hindex.NewAccessor with nil Counters charges every node visit to nobody: pass the query's metrics, or mark //lint:ungoverned <reason>")
				}
				return true
			}
			recv, method := pagerMethod(pass, call)
			if recv == "" {
				return true
			}
			switch {
			case recv == "Store" && method == "ReadRaw":
				if !pass.Marked(call, Marker) {
					pass.Reportf(call.Pos(),
						"Store.ReadRaw bypasses governed read accounting: use Store.Read, or mark //lint:ungoverned <reason> for maintenance bookkeeping")
				}
			case governed[recv][method]:
				if len(call.Args) > 0 && isNil(pass, call.Args[len(call.Args)-1]) && !pass.Marked(call, Marker) {
					pass.Reportf(call.Pos(),
						"%s.%s with nil Counters charges the read to nobody: pass the query's metrics, or mark //lint:ungoverned <reason>", recv, method)
				}
			}
			return true
		})
	}
	return nil
}

// pagerMethod resolves call to a method on a pager type, returning the
// receiver type name and method name ("" when call is something else).
func pagerMethod(pass *framework.Pass, call *ast.CallExpr) (recv, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", ""
	}
	for name := range governed {
		if framework.IsNamed(selection.Recv(), pagerPath, name) {
			return name, sel.Sel.Name
		}
	}
	return "", ""
}

// isHindexNewAccessor reports whether call invokes the package function
// rankcube/internal/hindex.NewAccessor (resolved through the type
// checker's uses, so aliasing the import does not hide the call).
func isHindexNewAccessor(pass *framework.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return ok && fn.Name() == "NewAccessor" &&
		fn.Pkg() != nil && fn.Pkg().Path() == hindexPath
}

// isNil reports whether expr is the predeclared nil.
func isNil(pass *framework.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(expr)]
	return ok && tv.IsNil()
}
