package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package (non-test files only — the
// determinism rules target production simulator code; tests are free to
// use wall clocks and global randomness).
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// ModuleRoot ascends from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module declaration from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// pkgSource is a package's parsed-but-not-yet-checked state.
type pkgSource struct {
	pkgPath string
	dir     string
	files   []*ast.File
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root, sorted by package path. Module packages are
// checked on demand, the first time one is imported or listed. Every
// other import is a standard-library one, served by a per-process memo
// (see stdImporter), so only the first load in a process pays for the
// stdlib. The loader needs no network and never runs the go command.
func LoadModule(root string) ([]*Package, error) {
	return loadModule(root, stdlib)
}

// loadModule is LoadModule with the stdlib importer supplied, so tests
// and the cold-path benchmark can start from an empty memo.
func loadModule(root string, std *stdImporter) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{
		module:  modPath,
		fset:    token.NewFileSet(),
		srcs:    make(map[string]*pkgSource),
		checked: make(map[string]*Package),
		std:     std,
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		src, err := parseDir(imp.fset, path)
		if err != nil {
			return err
		}
		if src == nil {
			return nil // no non-test Go files here
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src.pkgPath = filepath.ToSlash(filepath.Join(modPath, rel))
		imp.srcs[src.pkgPath] = src
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range slices.Sorted(maps.Keys(imp.srcs)) {
		pkg, err := imp.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir (used by the
// golden-file tests, whose fixture packages import only the stdlib). Its
// stdlib imports go through the same per-process memo as LoadModule's.
func LoadDir(dir string) (*Package, error) {
	return loadDir(dir, stdlib)
}

// loadDir is LoadDir with the stdlib importer supplied.
func loadDir(dir string, std *stdImporter) (*Package, error) {
	fset := token.NewFileSet()
	src, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	src.pkgPath = filepath.Base(dir)
	return check(fset, src, &moduleImporter{std: std})
}

// parseDir parses the non-test Go files of dir (nil if there are none).
func parseDir(fset *token.FileSet, dir string) (*pkgSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil
	}
	slices.Sort(names)
	src := &pkgSource{dir: dir}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		src.files = append(src.files, f)
	}
	return src, nil
}

// moduleImporter resolves module packages from the load in progress,
// checking each on demand, and everything else from the stdlib importer,
// whose memo outlives the load. Stdlib objects therefore carry positions
// in the stdlib importer's own FileSet: a rule may resolve a position
// through Package.Fset only for module syntax.
type moduleImporter struct {
	module  string // module path; empty for LoadDir
	fset    *token.FileSet
	srcs    map[string]*pkgSource
	checked map[string]*Package // a nil entry is still being checked
	err     error               // the first failure; every later load returns it
	std     *stdImporter
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if _, ok := m.srcs[path]; ok {
		pkg, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if m.module != "" && (path == m.module || strings.HasPrefix(path, m.module+"/")) {
		return nil, fmt.Errorf("analysis: package %s is not in the module", path)
	}
	return m.std.Import(path)
}

// load type-checks the module package at path the first time it is asked
// for. Meeting a nil entry again means an import cycle. The first failure
// sticks, so LoadModule reports the root cause, not an importer's
// wrapping of it.
func (m *moduleImporter) load(path string) (*Package, error) {
	pkg, seen := m.checked[path]
	switch {
	case m.err != nil: // a failed load fails every later one
	case seen && pkg == nil:
		m.err = fmt.Errorf("analysis: import cycle through %q", path)
	case !seen:
		m.checked[path] = nil
		var err error
		pkg, err = check(m.fset, m.srcs[path], m)
		m.checked[path] = pkg
		if m.err == nil {
			m.err = err
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	return pkg, nil
}

// check type-checks one parsed package.
func check(fset *token.FileSet, src *pkgSource, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(src.pkgPath, fset, src.files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", src.pkgPath, typeErrs[0])
	}
	return &Package{
		PkgPath: src.pkgPath,
		Dir:     src.dir,
		Fset:    fset,
		Files:   src.files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// stdlib is the process-wide standard-library importer: every LoadModule
// and LoadDir in the process shares its memo, so each GOROOT package is
// resolved, parsed and type-checked at most once per process.
var stdlib = newStdImporter()

// stdImporter type-checks standard-library packages from GOROOT source.
// go/build, with cgo disabled, resolves each import path (vendored
// golang.org/x packages included) and selects its files. They are parsed
// without comments, since go/build has already evaluated their
// //go:build lines, checked with function bodies ignored, and dropped,
// so the memo holds only type information. Positions of stdlib objects
// belong to the importer's own FileSet, never to a module Package.Fset.
type stdImporter struct {
	mu     sync.Mutex
	fset   *token.FileSet
	ctxt   build.Context
	byPath map[string]*stdPackage // a nil entry is still being checked
}

// stdPackage is one memoized import: the checked package or the error
// that stopped it.
type stdPackage struct {
	types *types.Package
	err   error
}

func newStdImporter() *stdImporter {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	ctxt.GOPATH = "" // the standard library lives in GOROOT alone
	return &stdImporter{
		fset:   token.NewFileSet(),
		ctxt:   ctxt,
		byPath: make(map[string]*stdPackage),
	}
}

// Import returns the checked package for a standard-library import path.
// It is safe for concurrent use; concurrent callers wait for one another.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load checks path once, memoizing the outcome (errors included). The
// caller holds s.mu.
func (s *stdImporter) load(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := s.byPath[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return p.types, p.err
	}
	s.byPath[path] = nil
	tpkg, err := s.check(path)
	s.byPath[path] = &stdPackage{tpkg, err}
	return tpkg, err
}

// check resolves path with go/build, then parses and type-checks the
// files it selects. Imports are resolved from a directory under
// GOROOT/src, which makes go/build search GOROOT/src/vendor and never
// run the go command; only its path matters, and it is outside src/cmd,
// whose vendor tree serves the toolchain's own commands.
func (s *stdImporter) check(path string) (*types.Package, error) {
	if build.IsLocalImport(path) {
		return nil, fmt.Errorf("analysis: cannot import %q: not a standard-library path", path)
	}
	bp, err := s.ctxt.Import(path, filepath.Join(s.ctxt.GOROOT, "src", "std"), 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: loading %q: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: loading %q: %w", bp.ImportPath, err)
		}
		files = append(files, f)
	}
	var firstHard error
	conf := types.Config{
		Importer:         importerFunc(s.load),
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", s.ctxt.GOARCH),
		Error: func(err error) {
			// Soft errors (such as an import used only in an ignored
			// function body) do not make the package unusable.
			if terr, ok := err.(types.Error); firstHard == nil && (!ok || !terr.Soft) {
				firstHard = err
			}
		},
	}
	tpkg, _ := conf.Check(bp.ImportPath, s.fset, files, nil)
	if firstHard != nil {
		return nil, fmt.Errorf("analysis: type-checking %q: %v", bp.ImportPath, firstHard)
	}
	return tpkg, nil
}
