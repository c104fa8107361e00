package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests load each analyzer's fixture package from
// testdata/src/<rule>/ and diff its diagnostics against the fixtures'
// trailing `// want "substring"` comments: every expectation must be
// matched by a diagnostic on its line, every unsuppressed diagnostic must
// be expected, and suppressed diagnostics must stay invisible (which is
// how the //iocheck:allow fixtures are verified).

var quotedRE = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	substr  string
	matched bool
}

type goldenFixture struct {
	dir string // under testdata/src; also the subtest name
	a   *Analyzer
}

// extraFixtures names fixture packages beyond the one per rule: one
// seeded bug per rule, a distilled copy of real module code with the bug
// planted, which must be reported at the planted line and nowhere else.
var extraFixtures = []goldenFixture{
	{"simtime-seeded", SimTime},
	{"maprange-seeded", MapRange},
	{"dropresult-seeded", DropResult},
}

func TestGolden(t *testing.T) {
	var fixtures []goldenFixture
	for _, a := range Analyzers() {
		fixtures = append(fixtures, goldenFixture{a.Name, a})
	}
	for _, fx := range append(fixtures, extraFixtures...) {
		a := fx.a
		t.Run(fx.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.dir)
			pkg, err := LoadDir(dir)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			// Strip the Applies filter: fixture packages are not under
			// internal/, but the rules must behave as if they were.
			runnable := &Analyzer{Name: a.Name, Doc: a.Doc, Run: a.Run}
			diags := Run([]*Package{pkg}, []*Analyzer{runnable})

			wants := collectWants(pkg)
			for _, d := range diags {
				if d.Suppressed {
					continue
				}
				if !matchWant(wants, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, exps := range wants {
				for _, e := range exps {
					if !e.matched {
						t.Errorf("%s: expected diagnostic matching %q, got none", key, e.substr)
					}
				}
			}
		})
	}
}

// collectWants parses `// want "..."` comments into line-keyed
// expectations.
func collectWants(pkg *Package) map[string][]*expectation {
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range quotedRE.FindAllStringSubmatch(c.Text[idx:], -1) {
					wants[key] = append(wants[key], &expectation{substr: m[1]})
				}
			}
		}
	}
	return wants
}

func matchWant(wants map[string][]*expectation, d Diagnostic) bool {
	key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
	for _, e := range wants[key] {
		if !e.matched && strings.Contains(d.Message, e.substr) {
			e.matched = true
			return true
		}
	}
	return false
}

// TestSuppressionRecordsReason pins the audit-trail behaviour: a
// suppressed diagnostic carries the allow comment's reason.
func TestSuppressionRecordsReason(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "simtime"))
	if err != nil {
		t.Fatal(err)
	}
	runnable := &Analyzer{Name: SimTime.Name, Run: SimTime.Run}
	diags := Run([]*Package{pkg}, []*Analyzer{runnable})
	found := false
	for _, d := range diags {
		if d.Suppressed {
			found = true
			if !strings.Contains(d.SuppressReason, "audited exception") {
				t.Errorf("suppression reason = %q, want the comment's reason", d.SuppressReason)
			}
		}
	}
	if !found {
		t.Fatal("expected at least one suppressed diagnostic in the simtime fixture")
	}
}

// TestMalformedAllowIsADiagnostic pins that an allow comment without a
// reason cannot silently disable a rule.
func TestMalformedAllowIsADiagnostic(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "badallow"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Unsuppressed(Run([]*Package{pkg}, nil))
	if len(diags) != 1 || diags[0].Rule != "allow" {
		t.Fatalf("diags = %v, want exactly one [allow] finding", diags)
	}
}

// TestUnknownRuleAllowIsADiagnostic pins that an allow naming a rule
// outside the suite is reported, not silently ignored: no run of the
// suite could ever judge it stale.
func TestUnknownRuleAllowIsADiagnostic(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "src", "unknownallow"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Unsuppressed(Run([]*Package{pkg}, Analyzers()))
	if len(diags) != 1 || diags[0].Rule != "allow" ||
		!strings.Contains(diags[0].Message, "nilflow names no rule in the suite") {
		t.Fatalf("diags = %v, want exactly one [allow] finding naming nilflow", diags)
	}
}

// TestAnalyzerDocs keeps the suite self-describing for `make lint` users.
func TestAnalyzerDocs(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
