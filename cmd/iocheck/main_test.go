package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// writeModule lays out a throwaway module for the CLI to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExitNonzeroOnSeededViolation is the acceptance demonstration: a
// seeded simtime violation makes the binary exit 1 with a file:line
// diagnostic.
func TestExitNonzeroOnSeededViolation(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module seeded\n\ngo 1.22\n",
		"internal/clock/clock.go": `package clock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	var out, errOut strings.Builder
	code := run([]string{root + "/..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout=%q stderr=%q", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "clock.go:5") || !strings.Contains(out.String(), "[simtime]") {
		t.Errorf("diagnostic output %q missing file:line or rule tag", out.String())
	}
}

// TestExitZeroOnCleanModule covers the passing path and the suppression
// path in one module.
func TestExitZeroOnCleanModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module clean\n\ngo 1.22\n",
		"internal/clock/clock.go": `package clock

import "time"

//iocheck:allow simtime boot stamp only, never enters the event schedule
func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	var out, errOut strings.Builder
	if code := run([]string{root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout=%q stderr=%q", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean run printed %q, want silence", out.String())
	}
	// -v surfaces the audited site.
	out.Reset()
	if code := run([]string{"-v", root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("verbose exit = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "suppressed: boot stamp only") {
		t.Errorf("verbose output %q does not show the suppressed finding", out.String())
	}
}

func TestBadUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"no-dots"}, &out, &errOut); code != 2 {
		t.Errorf("pattern without /...: exit = %d, want 2", code)
	}
	if code := run([]string{"./...", "./..."}, &out, &errOut); code != 2 {
		t.Errorf("two patterns: exit = %d, want 2", code)
	}
}

// TestExitCodeSplit pins the contract: 1 means findings, 2 means the run
// itself could not proceed (usage or load errors), and the usage error
// lands on stderr.
func TestExitCodeSplit(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module split\n\ngo 1.22\n",
		"internal/clock/clock.go": `package clock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	var out, errOut strings.Builder
	if code := run([]string{root + "/..."}, &out, &errOut); code != 1 {
		t.Errorf("findings: exit = %d, want 1", code)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-nosuch", root + "/..."}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined: -nosuch") {
		t.Errorf("unknown-flag message missing from stderr: %q", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{filepath.Join(root, "nope") + "/..."}, &out, &errOut); code != 2 {
		t.Errorf("unloadable tree: exit = %d, want 2; stderr=%q", code, errOut.String())
	}
}

// TestUnresolvableImportExitsTwo: an import that cannot be resolved is a
// load error (exit 2) whose message names the path, not a finding and
// not a silently skipped package. That covers a path that is neither in
// the module nor in GOROOT, a module-internal path with no package
// behind it, and a module-internal import cycle.
func TestUnresolvableImportExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"outside", map[string]string{
			"go.mod": "module badimport\n\ngo 1.22\n",
			"internal/use/use.go": `package use

import "example.invalid/nosuch"

var _ = nosuch.Value
`,
		}, "example.invalid/nosuch"},
		{"missing", map[string]string{
			"go.mod": "module badmod\n\ngo 1.22\n",
			"internal/use/use.go": `package use

import "badmod/internal/nosuch"

var _ = nosuch.Value
`,
		}, "badmod/internal/nosuch"},
		{"cycle", map[string]string{
			"go.mod": "module cyc\n\ngo 1.22\n",
			"internal/a/a.go": `package a

import "cyc/internal/b"

var A = b.B
`,
			"internal/b/b.go": `package b

import "cyc/internal/a"

var B = a.A
`,
		}, `import cycle through "cyc/internal/a"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := writeModule(t, tc.files)
			var out, errOut strings.Builder
			if code := run([]string{root + "/..."}, &out, &errOut); code != 2 {
				t.Fatalf("exit = %d, want 2; stdout=%q stderr=%q", code, out.String(), errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("load error does not name %s: %q", tc.want, errOut.String())
			}
		})
	}
}

// TestDeterministicOutput runs the binary twice over a module with
// several findings and requires byte-identical stdout.
func TestDeterministicOutput(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module det\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "time"

func A() int64 { return time.Now().UnixNano() }
func B() int64 { return time.Now().UnixNano() }
`,
		"internal/b/b.go": `package b

import "time"

func C() int64 { return time.Now().UnixNano() }
`,
	})
	render := func() string {
		var out, errOut strings.Builder
		run([]string{root + "/..."}, &out, &errOut)
		return out.String()
	}
	if first, second := render(), render(); first != second || first == "" {
		t.Errorf("text output not byte-identical across runs:\n%q\n%q", first, second)
	}
}

// TestBaselineRatchet: a run matching the baseline passes; adding one
// more allow makes it fail; regenerating with -write-baseline passes
// again.
func TestBaselineRatchet(t *testing.T) {
	files := map[string]string{
		"go.mod": "module ratchet\n\ngo 1.22\n",
		"internal/clock/clock.go": `package clock

import "time"

//iocheck:allow simtime boot stamp only, audited
func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	root := writeModule(t, files)
	base := filepath.Join(root, "lint-baseline.json")
	var out, errOut strings.Builder
	if code := run([]string{"-write-baseline", base, root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("write-baseline exit = %d; stderr=%q", code, errOut.String())
	}
	if code := run([]string{"-baseline", base, root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("at-baseline exit = %d, want 0; stderr=%q", code, errOut.String())
	}
	// A second audited allow in a fresh copy of the module grows the count.
	files["internal/clock/more.go"] = `package clock

import "time"

//iocheck:allow simtime another audited stamp
func Stamp2() int64 { return time.Now().UnixNano() }
`
	grownRoot := writeModule(t, files)
	errOut.Reset()
	if code := run([]string{"-baseline", base, grownRoot + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("grown suppressions exit = %d, want 1; stderr=%q", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "baseline allows 1") {
		t.Errorf("ratchet message missing counts: %q", errOut.String())
	}
	// Regenerating the baseline accepts the new audit.
	if code := run([]string{"-write-baseline", base, grownRoot + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("regenerate exit = %d", code)
	}
	if code := run([]string{"-baseline", base, grownRoot + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("after regenerate exit = %d, want 0", code)
	}
	// A missing baseline file is a load error, not a finding.
	if code := run([]string{"-baseline", filepath.Join(root, "nope.json"), root + "/..."}, &out, &errOut); code != 2 {
		t.Fatalf("missing baseline exit = %d, want 2", code)
	}
}

// TestFindingsBaselineRatchet pins the per-rule findings half of the
// ratchet: equal counts are grandfathered, growth fails, and shrinkage
// fails too until the baseline is regenerated downward.
func TestFindingsBaselineRatchet(t *testing.T) {
	violation := `package clock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
	files := map[string]string{
		"go.mod":                  "module ratchetdown\n\ngo 1.22\n",
		"internal/clock/clock.go": violation,
	}
	root := writeModule(t, files)
	base := filepath.Join(root, "lint-baseline.json")
	var out, errOut strings.Builder
	if code := run([]string{"-write-baseline", base, root + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("write-baseline with findings exit = %d, want 1 (still a finding without -baseline)", code)
	}

	// Equal to baseline: grandfathered, exit 0, but the debt is announced.
	errOut.Reset()
	if code := run([]string{"-baseline", base, root + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("at-baseline exit = %d, want 0; stderr=%q", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "grandfathered") {
		t.Errorf("grandfathered run should announce the debt, stderr=%q", errOut.String())
	}

	// One more finding: growth fails.
	files["internal/clock/more.go"] = `package clock

import "time"

func Stamp2() int64 { return time.Now().UnixNano() }
`
	grownRoot := writeModule(t, files)
	errOut.Reset()
	if code := run([]string{"-baseline", base, grownRoot + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("grown findings exit = %d, want 1; stderr=%q", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "baseline grandfathers 1") {
		t.Errorf("growth message missing counts: %q", errOut.String())
	}

	// Fixing the finding makes the baseline stale: the run fails until
	// the ratchet is moved down.
	delete(files, "internal/clock/more.go")
	files["internal/clock/clock.go"] = `package clock

func Stamp() int64 { return 0 }
`
	fixedRoot := writeModule(t, files)
	errOut.Reset()
	if code := run([]string{"-baseline", base, fixedRoot + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("stale baseline exit = %d, want 1; stderr=%q", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "stale baseline") || !strings.Contains(errOut.String(), "lint-baseline") {
		t.Errorf("stale message should point at make lint-baseline: %q", errOut.String())
	}
	if code := run([]string{"-write-baseline", base, fixedRoot + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("regenerate exit = %d", code)
	}
	if code := run([]string{"-baseline", base, fixedRoot + "/..."}, &out, &errOut); code != 0 {
		t.Fatalf("after ratchet-down exit = %d, want 0; stderr=%q", code, errOut.String())
	}
}

// TestBaselineOldFormatReadsAsZeroFindings keeps pre-findings baseline
// files working: no "findings" key means nothing is grandfathered.
func TestBaselineOldFormatReadsAsZeroFindings(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module oldbase\n\ngo 1.22\n",
		"internal/clock/clock.go": `package clock

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	base := filepath.Join(root, "old.json")
	if err := os.WriteFile(base, []byte(`{"suppressed": {"simtime": 3}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-baseline", base, root + "/..."}, &out, &errOut); code != 1 {
		t.Fatalf("old-format baseline exit = %d, want 1 (finding not grandfathered); stderr=%q", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "baseline grandfathers 0") {
		t.Errorf("old-format growth message: %q", errOut.String())
	}
}

// TestRosterThreeRules pins the roster the CLI runs: the three rules,
// in order.
func TestRosterThreeRules(t *testing.T) {
	names := []string{"simtime", "maprange", "dropresult"}
	got := analysis.Analyzers()
	if len(got) != 3 {
		t.Fatalf("roster has %d analyzers, want 3", len(got))
	}
	for i, a := range got {
		if a.Name != names[i] {
			t.Errorf("analyzer[%d] = %q, want %q", i, a.Name, names[i])
		}
	}
}
