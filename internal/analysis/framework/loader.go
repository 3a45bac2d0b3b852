package framework

// Package loading without golang.org/x/tools/go/packages: file discovery
// is delegated to `go list -deps -export -json` (which resolves build
// constraints, import maps, and GOROOT vendoring, emits packages in
// dependency order, and — with -export — materializes each dependency's
// compiler export data in the go build cache), and only the packages
// under analysis are parsed and type-checked from source. Dependencies,
// in particular the entire standard-library closure, are imported from
// their export data via the standard gc importer.
//
// The go build cache keys export data by toolchain version and build
// inputs, so it doubles as rankvet's per-toolchain type-information
// cache: the first run after a toolchain change compiles export data
// once, and every later run reads it back in microseconds per package
// instead of re-type-checking the stdlib from source (~1.4s per
// invocation before this scheme). Source type-checking remains as the
// fallback for any package the go tool cannot produce export data for,
// so cold-run correctness is unchanged.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string // export data file in the build cache, via -export
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// LoadStats describes where one loader's type information came from — the
// driver surfaces it so loader regressions (export cache misses turning
// into stdlib re-type-checks) are visible in CI logs.
type LoadStats struct {
	// ListTime is the wall clock spent in `go list -deps -export` calls
	// (where the build cache is consulted or populated).
	ListTime time.Duration
	// CheckTime is the wall clock spent parsing and type-checking source.
	CheckTime time.Duration
	// FromExport counts packages whose types were imported from cached
	// compiler export data (cache hits — no source involved).
	FromExport int
	// FromSource counts packages parsed and type-checked from source: the
	// packages under analysis, fixture overlays, and any dependency the go
	// tool produced no export data for (cache misses).
	FromSource int
}

// Loader type-checks the packages under analysis from source and imports
// everything else from compiler export data, caching results so every
// package is materialized at most once per process.
type Loader struct {
	fset  *token.FileSet
	dir   string // working directory for `go list`
	sizes types.Sizes
	typed map[string]*types.Package
	meta  map[string]*listedPkg
	exp   map[string]string // import path → export data file
	pkgs  map[string]*Package
	gcimp types.Importer // lazily-built gc export data importer
	stats LoadStats
}

// NewLoader returns a loader that runs `go list` in dir ("" = process cwd).
func NewLoader(dir string) *Loader {
	return &Loader{
		fset:  token.NewFileSet(),
		dir:   dir,
		sizes: types.SizesFor("gc", runtime.GOARCH),
		typed: map[string]*types.Package{"unsafe": types.Unsafe},
		meta:  make(map[string]*listedPkg),
		exp:   make(map[string]string),
		pkgs:  make(map[string]*Package),
	}
}

// Fset exposes the loader's shared file set for position rendering.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Stats reports where this loader's type information came from so far.
func (l *Loader) Stats() LoadStats { return l.stats }

// Load lists patterns with the go tool and returns the matched
// (non-dependency-only) packages with full syntax and type information, in
// dependency order. Dependencies outside the match are imported from
// export data on demand and never parsed.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly {
			continue // imported lazily, from export data when available
		}
		tp, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		out = append(out, tp)
	}
	return out, nil
}

// goList runs `go list -deps -export -json` (cgo disabled, so pure-Go
// fallback files are selected and everything type-checks from source when
// the fallback path is taken) and returns the packages in the tool's
// dependency-first order.
func (l *Loader) goList(patterns []string) ([]*listedPkg, error) {
	start := time.Now()
	defer func() { l.stats.ListTime += time.Since(start) }()
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	dec := json.NewDecoder(outPipe)
	var listed []*listedPkg
	for {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	for _, lp := range listed {
		l.meta[lp.ImportPath] = lp
		if lp.Export != "" {
			l.exp[lp.ImportPath] = lp.Export
		}
	}
	return listed, nil
}

// gcImporter returns the shared gc export-data importer, resolving export
// files through the loader's `go list -export` results. One importer
// instance serves the whole process so every export-imported package has a
// single identity.
func (l *Loader) gcImporter() types.Importer {
	if l.gcimp == nil {
		l.gcimp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := l.exp[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			rc, err := os.Open(file)
			if err == nil {
				l.stats.FromExport++
			}
			return rc, err
		})
	}
	return l.gcimp
}

// importPkg materializes the types of one dependency: previously loaded
// packages first, then compiler export data, then — as the cold-path
// fallback — source type-checking from the go list metadata.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if tp, ok := l.typed[path]; ok {
		return tp, nil
	}
	if _, ok := l.exp[path]; ok {
		tp, err := l.gcImporter().Import(path)
		if err == nil {
			l.typed[path] = tp
			return tp, nil
		}
		// Unreadable export data (pruned build cache): fall through to the
		// source path below rather than failing the run.
	}
	lp, ok := l.meta[path]
	if !ok {
		return nil, fmt.Errorf("package %s not listed", path)
	}
	pkg, err := l.check(lp)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// check parses and type-checks one listed package from source, resolving
// its imports through importPkg.
func (l *Loader) check(lp *listedPkg) (*Package, error) {
	if lp.Error != nil {
		return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
	}
	if pkg, ok := l.pkgs[lp.ImportPath]; ok {
		return pkg, nil
	}
	start := time.Now()
	defer func() { l.stats.CheckTime += time.Since(start) }()
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := lp.ImportMap[path]; ok {
				path = mapped
			}
			return l.importPkg(path)
		}),
		Sizes: l.sizes,
	}
	tpkg, err := conf.Check(lp.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	l.stats.FromSource++
	l.typed[lp.ImportPath] = tpkg
	pkg := &Package{Path: lp.ImportPath, Name: tpkg.Name(), Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[lp.ImportPath] = pkg
	return pkg, nil
}

// LoadOverlay type-checks the package rooted at srcRoot/path, resolving
// imports first against srcRoot (GOPATH-style fixture trees: the directory
// srcRoot/<import path> holds the package) and otherwise against the real
// standard library (export data first, source as fallback). It is the
// loading mode of the analysistest harness. Results are cached: loading
// the same fixture path twice returns the same *Package.
func (l *Loader) LoadOverlay(srcRoot, path string) (*Package, error) {
	return l.loadOverlay(srcRoot, path, make(map[string]bool))
}

func (l *Loader) loadOverlay(srcRoot, path string, loading map[string]bool) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(srcRoot, filepath.FromSlash(path))
	names, err := overlayFiles(dir)
	if err != nil {
		return nil, err
	}
	if loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	loading[path] = true
	defer delete(loading, path)

	start := time.Now()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			return l.resolve(srcRoot, imp, loading)
		}),
		Sizes: l.sizes,
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	l.stats.CheckTime += time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	l.stats.FromSource++
	l.typed[path] = tpkg
	pkg := &Package{Path: path, Name: tpkg.Name(), Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// resolve satisfies an import from a fixture: overlay directories win, then
// previously loaded packages, then export data (listed on demand through
// the go tool), then source as the fallback of importPkg.
func (l *Loader) resolve(srcRoot, path string, loading map[string]bool) (*types.Package, error) {
	if tp, ok := l.typed[path]; ok {
		return tp, nil
	}
	if names, err := overlayFiles(filepath.Join(srcRoot, filepath.FromSlash(path))); err == nil && len(names) > 0 {
		pkg, err := l.loadOverlay(srcRoot, path, loading)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if _, ok := l.meta[path]; !ok {
		if _, err := l.goList([]string{path}); err != nil {
			return nil, fmt.Errorf("import %q: not in fixture tree and %v", path, err)
		}
	}
	return l.importPkg(path)
}

// overlayFiles lists the non-test .go files of a fixture directory.
func overlayFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return names, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
