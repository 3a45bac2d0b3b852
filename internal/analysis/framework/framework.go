// Package framework is a minimal, dependency-free implementation of the
// golang.org/x/tools/go/analysis model: an Analyzer holds a Run function
// that inspects one type-checked package (a Pass) and reports Diagnostics.
//
// The build environment of this repository is hermetic — no module proxy —
// so x/tools cannot be vendored; this package mirrors its API shape
// (Analyzer, Pass, Reportf) closely enough that the analyzers in the
// sibling packages can be ported to the real framework mechanically if the
// dependency ever becomes available. Every analyzer looks at one package
// at a time, so there are no facts. Dependency type information is loaded
// from compiler export data (loader.go) instead of re-type-checking the
// standard library from source on every run.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check. Name appears in diagnostics;
// Doc is the one-paragraph rationale shown by `rankvet help`.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills in the Analyzer
	// field and aggregates across packages.
	Report func(Diagnostic)

	// markers caches the per-file marker index, built on first use.
	markers map[*ast.File][]markedNode
}

// NewPass assembles a pass over pkg for a. The driver and the analysistest
// harness both construct passes through here so the report sink is wired
// uniformly.
func NewPass(a *Analyzer, pkg *Package, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    report,
	}
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// MarkerPrefix introduces a suppression/justification marker comment:
// `//lint:<name> <reason>`. A marker blesses exactly one statement (or
// struct field / declaration spec), never a region.
const MarkerPrefix = "lint:"

// markedNode is one marker attachment: the AST node a //lint: comment is
// bound to, and the marker's name.
type markedNode struct {
	node ast.Node
	name string
}

// Marked reports whether node carries the given //lint:<name> marker.
//
// Markers are attached to AST nodes, not source lines: each //lint:
// comment is bound — via ast.NewCommentMap, i.e. the standard trailing- or
// doc-comment association — to the statement (or struct field, or
// declaration spec) it documents, and a node is Marked when an attached
// statement spans it. Reformatting that moves a statement across lines
// therefore cannot detach its marker: the comment travels with the
// statement in the AST, wherever the statement's text lands. The flagged
// call deep inside a multi-line statement is still blessed by the marker
// on the statement itself.
func (p *Pass) Marked(node ast.Node, name string) bool {
	file := p.FileOf(node)
	if file == nil {
		return false
	}
	for _, m := range p.markerIndex(file) {
		if m.name != name {
			continue
		}
		if m.node.Pos() <= node.Pos() && node.Pos() < m.node.End() {
			return true
		}
	}
	return false
}

// markerIndex builds (once per file) the list of marker attachments:
// every //lint: comment in the file, bound to its associated statement,
// field, or spec.
func (p *Pass) markerIndex(file *ast.File) []markedNode {
	if p.markers == nil {
		p.markers = make(map[*ast.File][]markedNode)
	}
	if idx, ok := p.markers[file]; ok {
		return idx
	}
	idx := []markedNode{}
	cmap := ast.NewCommentMap(p.Fset, file, file.Comments)
	for node, groups := range cmap {
		if !markerAttachable(node) {
			continue
		}
		for _, cg := range groups {
			for _, c := range cg.List {
				if name, ok := markerName(c.Text); ok {
					idx = append(idx, markedNode{node: node, name: name})
				}
			}
		}
	}
	p.markers[file] = idx
	return idx
}

// markerAttachable reports whether a marker may bind to node: statements,
// struct fields, and declaration specs (a `var x = …` group). Broader
// nodes — whole functions, whole files — are deliberately excluded so a
// marker can never bless a region.
func markerAttachable(node ast.Node) bool {
	switch node.(type) {
	case ast.Stmt, *ast.Field, ast.Spec, *ast.GenDecl:
		return true
	}
	return false
}

// markerName extracts the marker name of a `//lint:<name> <reason>`
// comment, reporting ok=false for non-marker comments.
func markerName(comment string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if !strings.HasPrefix(text, MarkerPrefix) {
		return "", false
	}
	name := strings.TrimPrefix(text, MarkerPrefix)
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	return name, name != ""
}

// FileOf returns the *ast.File of the pass containing node, or nil.
func (p *Pass) FileOf(node ast.Node) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= node.Pos() && node.Pos() < f.FileEnd {
			return f
		}
	}
	return nil
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// IsNamed reports whether t (after pointer indirection) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
