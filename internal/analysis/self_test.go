package analysis

import (
	"strings"
	"testing"
)

// TestModuleSelfCheck runs the full analyzer suite over the actual module
// and asserts zero unsuppressed diagnostics. This is the enforcement
// backstop: even a CI that only runs tier-1 (`go test ./...`) gates every
// PR on the determinism and protocol invariants, and a rule regression in
// the analyzers themselves shows up here as false positives on known-clean
// code.
func TestModuleSelfCheck(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the module", len(pkgs))
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range Unsuppressed(diags) {
		t.Errorf("%s", d)
	}
	// The audited exceptions must stay visible as suppressed findings; if
	// the last one disappears, the allow comment is stale and should go.
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Error("expected at least one suppressed (audited) finding in the tree; stale allow machinery?")
	}
}

// TestSuiteIsComplete pins the suite roster: all three rules — the two
// determinism rules and the delivery-contract rule — must be registered,
// in deterministic order.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{"simtime", "maprange", "dropresult"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer[%d] = %q, want %q", i, a.Name, want[i])
		}
	}
}

// TestRunIsDeterministic runs the whole suite over the module twice and
// asserts the rendered diagnostics — suppressed included — are
// byte-identical: positions, ordering, and messages may not depend on map
// iteration or load order.
func TestRunIsDeterministic(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		pkgs, err := LoadModule(root)
		if err != nil {
			t.Fatalf("loading module: %v", err)
		}
		var sb strings.Builder
		for _, d := range Run(pkgs, Analyzers()) {
			sb.WriteString(d.String())
			sb.WriteString(" suppressed=")
			if d.Suppressed {
				sb.WriteString("y " + d.SuppressReason)
			} else {
				sb.WriteString("n")
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	first, second := render(), render()
	if first != second {
		t.Error("two identical runs rendered different output; diagnostics are not deterministic")
	}
}
