package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func loadHeatFixture(t *testing.T) (*Package, *Program) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", "heat"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg, NewProgram([]*Package{pkg})
}

// markPos locates the mark("label") call inside fnName.
func markPos(t *testing.T, pkg *Package, fnName, label string) token.Pos {
	t.Helper()
	var pos token.Pos
	for _, f := range pkg.Files {
		for _, fd := range enclosingFuncs(f) {
			if fd.Name.Name != fnName {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "mark" || len(call.Args) != 1 {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Value == `"`+label+`"` {
					pos = call.Pos()
				}
				return true
			})
		}
	}
	if !pos.IsValid() {
		t.Fatalf("no mark(%q) in %s", label, fnName)
	}
	return pos
}

// TestColdPruningEdgeCases walks the CFG shapes the pruner must get
// right: error branches nested in select clause bodies, labeled
// break/continue from failure paths, and panic blocks — without losing
// the warm statements around them.
func TestColdPruningEdgeCases(t *testing.T) {
	pkg, prog := loadHeatFixture(t)
	cases := []struct {
		fn, label string
		cold      bool
	}{
		{"selectCold", "warm recv", false},
		{"selectCold", "cold err", true},
		{"selectCold", "warm after err check", false},
		{"selectCold", "warm done", false},

		{"labeledCold", "warm inner", false},
		{"labeledCold", "cold break", true},
		{"labeledCold", "warm outer tail", false},
		{"labeledCold", "warm end", false},

		{"labeledContinueCold", "cold miss", true},
		{"labeledContinueCold", "warm hit", false},

		{"panicCold", "cold about to panic", true},
		{"panicCold", "warm tail", false},
	}
	for _, c := range cases {
		n := findNode(t, prog, c.fn)
		cold := n.coldBlocks()
		if got := cold.contains(markPos(t, pkg, c.fn, c.label)); got != c.cold {
			t.Errorf("%s: mark(%q) cold = %v, want %v", c.fn, c.label, got, c.cold)
		}
	}
}

// TestHeatPropagation checks the fixpoint's seeds and stops: the marked
// root heats its static callees transitively; calls in cold blocks,
// //iocheck:cold functions (and everything only they call), and
// cold-by-name-shape functions stay cold.
func TestHeatPropagation(t *testing.T) {
	_, prog := loadHeatFixture(t)
	prog.ensureHeat()
	cases := []struct {
		fn  string
		hot bool
	}{
		{"root", true},            // //iocheck:hot marker
		{"helper", true},          // direct static call from a hot function
		{"leaf", true},            // transitive
		{"onError", false},        // only called from a cold block
		{"slowPath", false},       // //iocheck:cold marker beats the call edge
		{"slowLeaf", false},       // propagation stops at the cold marker
		{"shutdownAll", false},    // cold name prefix
		{"(stamp).String", false}, // cold name exact
	}
	for _, c := range cases {
		if got := findNode(t, prog, c.fn).Hot; got != c.hot {
			t.Errorf("%s: Hot = %v, want %v", c.fn, got, c.hot)
		}
	}
	if got, want := findNode(t, prog, "leaf").HotChain(), "root → helper → leaf"; got != want {
		t.Errorf("leaf witness chain = %q, want %q", got, want)
	}
}

// TestFanOutReclaimIsHot pins the subscriber fan-out path into the heat
// set over the real module: reclaim runs on every subscriber delivery, so
// it must be hot via the subscriber's event step, or the perf rules
// cannot see a per-delivery cost there.
func TestFanOutReclaimIsHot(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	prog := NewProgram(pkgs)
	prog.ensureHeat()
	for _, c := range []struct{ fn, chain string }{
		{"(*SubHub).reclaim", "(*Subscriber).step → (*SubHub).reclaim"},
		{"(*Subscriber).advance", "(*Subscriber).step → (*Subscriber).advance"},
		{"(*Subscriber).finish", "(*Subscriber).step → (*Subscriber).finish"},
		{"(*Transfer).finish", "(*Transfer).step → (*Transfer).finish"},
		{"(*Machine).arrives", "(*Machine).Send → (*Machine).arrives"},
		{"(*SubHub).evict", "(*SubHub).Publish → (*SubHub).evict"},
	} {
		n := findNode(t, prog, c.fn)
		if !n.Hot {
			t.Errorf("%s is not hot", c.fn)
			continue
		}
		if got := n.HotChain(); got != c.chain {
			t.Errorf("%s witness chain = %q, want %q", c.fn, got, c.chain)
		}
	}
}

// TestHotRootsNameModuleFuncs pins hotRootTable to the code: a root left
// behind by a rename or a deletion names no function and silently seeds
// nothing, so every entry must match a function in the loaded module.
func TestHotRootsNameModuleFuncs(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	prog := NewProgram(pkgs)
	suffixes := make([]string, 0, len(hotRootTable))
	for suffix := range hotRootTable {
		suffixes = append(suffixes, suffix)
	}
	sort.Strings(suffixes)
	for _, suffix := range suffixes {
		for _, want := range hotRootTable[suffix] {
			found := false
			for _, n := range prog.nodes {
				if strings.HasSuffix(n.Pkg.PkgPath, suffix) && n.String() == want {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("hot root %s %s names no function in the module", suffix, want)
			}
		}
	}
}
