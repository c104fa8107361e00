package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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
	imports []string // module-internal imports only
}

// LoadModule parses and type-checks every non-test package under the
// module rooted at root. Module packages are checked in dependency order
// and served from memory; standard-library imports are type-checked from
// GOROOT source (function bodies ignored, cgo disabled, so files that
// import "C" are left out) by a per-process importer that memoizes each
// stdlib package, so only the first load in a process pays for the
// stdlib. The loader needs no network and nothing beyond the standard
// library.
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
	fset := token.NewFileSet()
	srcs := make(map[string]*pkgSource)
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
		src, err := parseDir(fset, path)
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
		src.pkgPath = modPath
		if rel != "." {
			src.pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		for _, f := range src.files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					src.imports = append(src.imports, p)
				}
			}
		}
		srcs[src.pkgPath] = src
		return nil
	})
	if err != nil {
		return nil, err
	}
	order, err := topoSort(srcs)
	if err != nil {
		return nil, err
	}
	checked := make(map[string]*Package)
	imp := &moduleImporter{module: checked, std: std}
	var pkgs []*Package
	for _, path := range order {
		pkg, err := check(fset, srcs[path], imp)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
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
	imp := &moduleImporter{module: map[string]*Package{}, std: std}
	return check(fset, src, imp)
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
	sort.Strings(names)
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

// topoSort orders packages so every module-internal import precedes its
// importer.
func topoSort(srcs map[string]*pkgSource) ([]string, error) {
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(srcs))
	var order []string
	var visit func(p string, chain []string) error
	visit = func(p string, chain []string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle: %s", strings.Join(append(chain, p), " -> "))
		}
		state[p] = visiting
		src := srcs[p]
		deps := append([]string(nil), src.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if _, ok := srcs[dep]; !ok {
				return fmt.Errorf("analysis: %s imports %s, which is not in the module", p, dep)
			}
			if err := visit(dep, append(chain, p)); err != nil {
				return err
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module packages from the load in progress and
// everything else from the stdlib importer, whose memo outlives the load.
// Stdlib objects therefore carry positions in the stdlib importer's own
// FileSet: a rule may resolve a position through Package.Fset only for
// module syntax.
type moduleImporter struct {
	module map[string]*Package
	std    *stdImporter
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.module[path]; ok {
		return pkg.Types, nil
	}
	return m.std.Import(path)
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
// parsed and type-checked at most once per process.
var stdlib = newStdImporter()

// stdImporter type-checks standard-library packages from GOROOT source.
// It selects files the way go/build does with cgo disabled, but by file
// name and one parse per file: _test.go files and files whose
// _GOOS/_GOARCH suffix does not match are dropped unopened, every other
// file is parsed once, and a file is kept when its //go:build line holds
// under build.Default's tags and it does not import "C". Packages are
// checked with function bodies ignored, then the ASTs are dropped, so the
// memo holds only type information. Positions of stdlib objects belong
// to the importer's own FileSet, never to a module Package.Fset.
type stdImporter struct {
	mu     sync.Mutex
	fset   *token.FileSet
	goroot string
	goarch string
	tags   map[string]bool
	byPath map[string]*stdPackage // keyed by import path and by package path
}

// stdPackage is one memoized import: the checked package or the error
// that stopped it, plus the files that were selected.
type stdPackage struct {
	path  string // package path; vendor/… for vendored imports
	dir   string
	files []string // base names of the type-checked files, sorted
	types *types.Package
	err   error
	busy  bool // being checked; seeing it again means an import cycle
}

func newStdImporter() *stdImporter {
	ctxt := build.Default
	tags := map[string]bool{ctxt.GOOS: true, ctxt.GOARCH: true, ctxt.Compiler: true}
	if unixOS[ctxt.GOOS] {
		tags["unix"] = true
	}
	switch ctxt.GOOS {
	case "android":
		tags["linux"] = true
	case "illumos":
		tags["solaris"] = true
	case "ios":
		tags["darwin"] = true
	}
	for _, list := range [][]string{ctxt.BuildTags, ctxt.ToolTags, ctxt.ReleaseTags} {
		for _, tag := range list {
			tags[tag] = true
		}
	}
	if tags["goexperiment.boringcrypto"] {
		tags["boringcrypto"] = true // go/build's old name for the experiment
	}
	return &stdImporter{
		fset:   token.NewFileSet(),
		goroot: ctxt.GOROOT,
		goarch: ctxt.GOARCH,
		tags:   tags,
		byPath: make(map[string]*stdPackage),
	}
}

// Import returns the checked package for a standard-library import path.
// It is safe for concurrent use; concurrent callers wait for one another.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.load(path).result()
}

func (p *stdPackage) result() (*types.Package, error) {
	if p.err != nil {
		return nil, p.err
	}
	return p.types, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load resolves, selects, parses and checks path, memoizing the outcome
// (errors included). The caller holds s.mu.
func (s *stdImporter) load(path string) *stdPackage {
	if path == "unsafe" {
		return &stdPackage{path: path, types: types.Unsafe}
	}
	if p, ok := s.byPath[path]; ok {
		if p.busy {
			return &stdPackage{path: path, err: fmt.Errorf("analysis: import cycle through %q", path)}
		}
		return p
	}
	pkgPath, dir, err := s.resolve(path)
	if err != nil {
		p := &stdPackage{path: path, err: err}
		s.byPath[path] = p
		return p
	}
	if p, ok := s.byPath[pkgPath]; ok {
		s.byPath[path] = p
		return p
	}
	p := &stdPackage{path: pkgPath, dir: dir, busy: true}
	s.byPath[path] = p
	s.byPath[pkgPath] = p
	p.types, p.files, p.err = s.check(pkgPath, dir)
	p.busy = false
	return p
}

// resolve maps an import path to its package path and GOROOT directory,
// falling back to GOROOT/src/vendor the way go/build resolves the
// standard library's vendored golang.org/x imports.
func (s *stdImporter) resolve(path string) (pkgPath, dir string, err error) {
	if build.IsLocalImport(path) || filepath.IsAbs(path) {
		return "", "", fmt.Errorf("analysis: cannot import %q: not a standard-library path", path)
	}
	src := filepath.Join(s.goroot, "src")
	if dir := filepath.Join(src, filepath.FromSlash(path)); isDir(dir) {
		return path, dir, nil
	}
	if dir := filepath.Join(src, "vendor", filepath.FromSlash(path)); isDir(dir) {
		return "vendor/" + path, dir, nil
	}
	return "", "", fmt.Errorf("analysis: cannot find package %q in GOROOT (%s)", path, src)
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// check selects, parses and type-checks the package in dir.
func (s *stdImporter) check(pkgPath, dir string) (*types.Package, []string, error) {
	files, err := s.parseDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: loading %q: %w", pkgPath, err)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("analysis: no buildable Go files for %q in %s", pkgPath, dir)
	}
	var firstHard error
	conf := types.Config{
		Importer:         importerFunc(func(path string) (*types.Package, error) { return s.load(path).result() }),
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", s.goarch),
		Error: func(err error) {
			// Soft errors (such as an import used only in an ignored
			// function body) do not make the package unusable.
			if terr, ok := err.(types.Error); firstHard == nil && (!ok || !terr.Soft) {
				firstHard = err
			}
		},
	}
	tpkg, _ := conf.Check(pkgPath, s.fset, files, nil)
	if firstHard != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %q: %v", pkgPath, firstHard)
	}
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = filepath.Base(s.fset.File(f.Package).Name())
	}
	return tpkg, names, nil
}

// parseDir parses the files of dir that a cgo-disabled build of this
// GOOS/GOARCH compiles, sorted by name.
func (s *stdImporter) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") || !s.goodOSArchFile(name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		keep, err := s.shouldBuild(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if keep {
			files = append(files, f)
		}
	}
	return files, nil
}

// goodOSArchFile reports whether name's _GOOS, _GOARCH or _GOOS_GOARCH
// suffix, if any, matches; it mirrors go/build, which ignores everything
// before the first underscore (so "linux.go" carries no constraint).
func (s *stdImporter) goodOSArchFile(name string) bool {
	name, _, _ = strings.Cut(name, ".")
	i := strings.Index(name, "_")
	if i < 0 {
		return true
	}
	l := strings.Split(name[i:], "_")
	if n := len(l); n >= 2 && knownOS[l[n-2]] && knownArch[l[n-1]] {
		return s.tags[l[n-2]] && s.tags[l[n-1]]
	}
	if last := l[len(l)-1]; knownOS[last] || knownArch[last] {
		return s.tags[last]
	}
	return true
}

// shouldBuild evaluates f's //go:build line (absent means always) and
// drops cgo files, which a cgo-disabled build ignores.
func (s *stdImporter) shouldBuild(f *ast.File) (bool, error) {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"C"` {
			return false, nil
		}
	}
	if f.Name.Name == "documentation" {
		return false, nil
	}
	for _, g := range f.Comments {
		if g.Pos() >= f.Package {
			break
		}
		for _, c := range g.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false, err
			}
			return expr.Eval(func(tag string) bool { return s.tags[tag] }), nil
		}
	}
	return true, nil
}

// knownOS, unixOS and knownArch copy go/build's internal lists: a file
// suffix names a constraint only when it is a known OS or architecture.
var knownOS = setOf("aix", "android", "darwin", "dragonfly", "freebsd", "hurd", "illumos",
	"ios", "js", "linux", "nacl", "netbsd", "openbsd", "plan9", "solaris", "wasip1", "windows", "zos")

var unixOS = setOf("aix", "android", "darwin", "dragonfly", "freebsd", "hurd", "illumos",
	"ios", "linux", "netbsd", "openbsd", "solaris")

var knownArch = setOf("386", "amd64", "amd64p32", "arm", "armbe", "arm64", "arm64be", "loong64",
	"mips", "mipsle", "mips64", "mips64le", "mips64p32", "mips64p32le", "ppc", "ppc64", "ppc64le",
	"riscv", "riscv64", "s390", "s390x", "sparc", "sparc64", "wasm")

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
