// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live in a GOPATH-style tree: <testdata>/src/<import path>/*.go.
// Imports resolve first against that tree (so fixtures can stub repository
// packages such as rankcube/internal/pager under their real import paths)
// and then against the actual standard library, type-checked from source.
//
// A `// want "re"` comment asserts that the analyzer reports a diagnostic
// on that line matching the regexp; multiple quoted regexps assert multiple
// diagnostics. Diagnostics without a matching want, and wants without a
// matching diagnostic, both fail the test.
package analysistest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rankcube/internal/analysis/framework"
)

// shared caches standard-library type checking across Run calls within one
// test binary. Fixture trees are per-analyzer-package, and each analyzer's
// tests run in their own binary, so cross-tree collisions cannot occur.
var (
	mu     sync.Mutex
	shared = framework.NewLoader("")
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		//lint:invariant test harness setup: Abs fails only if the process cwd is gone
		panic(err)
	}
	return dir
}

// Run loads each fixture package from <testdata>/src/<path>, applies the
// analyzer, and checks its diagnostics against the fixtures' want
// comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	mu.Lock()
	defer mu.Unlock()
	for _, path := range paths {
		pkg, err := shared.LoadOverlay(srcRoot, path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		var diags []framework.Diagnostic
		pass := framework.NewPass(a, pkg, func(d framework.Diagnostic) { diags = append(diags, d) })
		if err := a.Run(pass); err != nil {
			t.Errorf("%s on %s: %v", a.Name, path, err)
			continue
		}
		checkWants(t, pkg, diags)
	}
}

// want is one expectation: a regexp on a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// checkWants cross-checks diagnostics against the fixture's expectations.
func checkWants(t *testing.T, pkg *framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, file := range pkg.Files {
		name := pkg.Fset.Position(file.Pos()).Filename
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, expr := range splitQuoted(strings.TrimPrefix(text, "want ")) {
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", name, line, expr, err)
						continue
					}
					wants = append(wants, &want{file: name, line: line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d:%d: unexpected diagnostic: %s%s",
				pos.Filename, pos.Line, pos.Column, d.Message, nearestWant(wants, pos))
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// nearestWant describes the unmatched expectation closest to pos in the
// same file, so an off-by-one-line or regexp-mismatch failure points
// straight at the expectation it was probably meant to satisfy.
func nearestWant(wants []*want, pos token.Position) string {
	var best *want
	bestDist := -1
	for _, w := range wants {
		if w.matched || w.file != pos.Filename {
			continue
		}
		dist := w.line - pos.Line
		if dist < 0 {
			dist = -dist
		}
		if best == nil || dist < bestDist {
			best, bestDist = w, dist
		}
	}
	if best == nil {
		return ""
	}
	return fmt.Sprintf(" (nearest unmatched want at line %d: %q)", best.line, best.re)
}

// splitQuoted extracts the double-quoted regexp literals of a want comment.
func splitQuoted(s string) []string {
	var out []string
	var sc scanner.Scanner
	fset := token.NewFileSet()
	f := fset.AddFile("want", fset.Base(), len(s))
	sc.Init(f, []byte(s), nil, 0)
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.STRING {
			if unq, err := strconv.Unquote(lit); err == nil {
				out = append(out, unq)
			}
		}
	}
	if len(out) == 0 {
		// A bare unquoted pattern is accepted for convenience.
		if trimmed := strings.TrimSpace(s); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}
