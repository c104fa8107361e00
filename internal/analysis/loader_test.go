package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestVendoredImportResolves pins the vendor search: the standard
// library imports golang.org/x packages that live in GOROOT/src/vendor,
// and they must keep the vendor/... package path go/build gives them.
// dnsmessage imports only errors, so a cold importer checks it quickly.
func TestVendoredImportResolves(t *testing.T) {
	const path = "golang.org/x/net/dns/dnsmessage"
	pkg, err := newStdImporter().Import(path)
	if err != nil {
		t.Fatalf("Import(%q): %v", path, err)
	}
	if got, want := pkg.Path(), "vendor/"+path; got != want {
		t.Errorf("Import(%q) resolved to %q, want %q", path, got, want)
	}
}

// TestDiagnosticPositionsInModule runs the whole suite over the module
// and requires every diagnostic, suppressed ones included, to name a
// file under the module root. Stdlib objects carry positions in the
// stdlib importer's own FileSet; resolving one through a module
// Package.Fset would name the wrong file (or none), since both FileSets
// number positions from the same base.
func TestDiagnosticPositionsInModule(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(pkgs, Analyzers())
	if len(diags) == 0 {
		t.Fatal("no diagnostics at all; expected the audited suppressions")
	}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if d.Pos.Filename == "" || d.Pos.Line == 0 || err != nil || !filepath.IsLocal(rel) {
			t.Errorf("diagnostic outside the module root %s: %s", root, d)
		}
	}
}

// TestConcurrentLoads loads the module and a fixture package at once
// through one cold stdlib importer, so both goroutines fill and read the
// shared memo together (make race-smoke runs this under -race). Each
// must render the same diagnostics as a sequential load through the
// process-wide memo.
func TestConcurrentLoads(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("testdata", "src", "dropresult-seeded") // imports fmt: a large stdlib closure
	// The fixture is not under internal/, so it runs the suite without
	// the Applies filters, as the golden tests do.
	var unfiltered []*Analyzer
	for _, a := range Analyzers() {
		unfiltered = append(unfiltered, &Analyzer{Name: a.Name, Doc: a.Doc, Run: a.Run})
	}
	loads := []struct {
		load      func(std *stdImporter) ([]*Package, error)
		analyzers []*Analyzer
	}{
		{func(std *stdImporter) ([]*Package, error) { return loadModule(root, std) }, Analyzers()},
		{func(std *stdImporter) ([]*Package, error) {
			pkg, err := loadDir(fixture, std)
			return []*Package{pkg}, err
		}, unfiltered},
	}
	render := func(pkgs []*Package, analyzers []*Analyzer) string {
		var sb strings.Builder
		for _, d := range Run(pkgs, analyzers) {
			sb.WriteString(d.String())
			if d.Suppressed {
				sb.WriteString(" (suppressed)")
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	got := make([]string, len(loads))
	errs := make([]error, len(loads))
	shared := newStdImporter()
	var wg sync.WaitGroup
	for i, l := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgs, err := l.load(shared)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = render(pkgs, l.analyzers)
		}()
	}
	wg.Wait()
	for i, l := range loads {
		if errs[i] != nil {
			t.Fatalf("concurrent load %d: %v", i, errs[i])
		}
		pkgs, err := l.load(stdlib)
		if err != nil {
			t.Fatalf("sequential load %d: %v", i, err)
		}
		if want := render(pkgs, l.analyzers); got[i] != want || want == "" {
			t.Errorf("load %d: concurrent diagnostics differ from sequential ones (or are empty):\n%s\nwant:\n%s", i, got[i], want)
		}
	}
}

// TestLoadErrorsNameTheImport pins how a broken non-module import
// surfaces: as an error naming the import path, never as a nil package.
// The fixture imports a path that exists nowhere; the fake GOROOT holds
// a package with a hard type error and one that imports it. go/build's
// own "cannot find package" wording for missing/dir also shows that the
// lookup stayed in-process, without running the go command.
func TestLoadErrorsNameTheImport(t *testing.T) {
	if _, err := LoadDir(filepath.Join("testdata", "src", "badimport")); err == nil ||
		!strings.Contains(err.Error(), "example.invalid/nosuch") {
		t.Errorf("LoadDir on a missing import: err = %v, want one naming example.invalid/nosuch", err)
	}

	goroot := t.TempDir()
	for name, src := range map[string]string{
		"src/broken/broken.go": "package broken\n\nvar X int = \"not an int\"\n",
		"src/user/user.go":     "package user\n\nimport \"broken\"\n\nvar Y = broken.X\n",
	} {
		path := filepath.Join(goroot, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	std := newStdImporter()
	std.ctxt.GOROOT = goroot
	for _, tc := range []struct{ path, want string }{
		{"broken", `type-checking "broken"`},
		{"user", `could not import broken`},
		{"missing/dir", `cannot find package "missing/dir"`},
	} {
		pkg, err := std.Import(tc.path)
		if pkg != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Import(%q) = %v, %v; want a nil package and an error containing %q", tc.path, pkg, err, tc.want)
		}
		// The failure is memoized, not swallowed on the second call.
		if pkg, err := std.Import(tc.path); pkg != nil || err == nil {
			t.Errorf("second Import(%q) = %v, %v; want the memoized error", tc.path, pkg, err)
		}
	}
}

// BenchmarkLoadModuleCold measures the loader's cold path: every
// iteration builds a fresh stdlib importer, so the per-process memo
// cannot hide a regression in stdlib resolution, parsing or checking.
func BenchmarkLoadModuleCold(b *testing.B) {
	root, err := ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := loadModule(root, newStdImporter()); err != nil {
			b.Fatal(err)
		}
	}
}
