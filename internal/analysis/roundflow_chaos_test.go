package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRoundflowCatchesFenceStrip is the chaos cross-check for the serve
// leg: the fencestrip fixture is a distilled copy of the container
// manager's serve loop, clean as written. The test then strips the epoch
// fence guard — the exact block the split-brain fix added — and asserts
// roundflow reports the unfenced dispatch at the guard's own line, i.e.
// the rule would have caught the bug the chaos suite originally found.
func TestRoundflowCatchesFenceStrip(t *testing.T) {
	fixture := filepath.Join("testdata", "src", "fencestrip", "fencestrip.go")
	src, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}

	runRoundflow := func(dir string) []Diagnostic {
		pkg, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		runnable := &Analyzer{Name: RoundFlow.Name, Run: RoundFlow.Run}
		return Unsuppressed(Run([]*Package{pkg}, []*Analyzer{runnable}))
	}

	// Baseline: the guarded loop is clean.
	if diags := runRoundflow(filepath.Dir(fixture)); len(diags) != 0 {
		t.Fatalf("guarded fixture should be clean, got: %v", diags)
	}

	// Locate the fence guard and strip its whole block by brace count.
	lines := strings.Split(string(src), "\n")
	guardLine := -1 // 1-based
	for i, l := range lines {
		if strings.Contains(l, "if e := h.Epoch; isRound") {
			guardLine = i + 1
			break
		}
	}
	if guardLine < 0 {
		t.Fatal("fence guard not found in fixture")
	}
	depth, end := 0, -1
	for i := guardLine - 1; i < len(lines); i++ {
		depth += strings.Count(lines[i], "{") - strings.Count(lines[i], "}")
		if depth == 0 {
			end = i
			break
		}
	}
	if end < 0 {
		t.Fatal("unbalanced fence guard block")
	}
	stripped := append(append([]string{}, lines[:guardLine-1]...), lines[end+1:]...)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fencestrip.go"),
		[]byte(strings.Join(stripped, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	diags := runRoundflow(dir)
	if len(diags) != 1 {
		t.Fatalf("stripped fixture: got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "epoch fence-check") {
		t.Errorf("diagnostic is not the fence obligation: %s", d)
	}
	// The dispatch shifts up into the stripped block: the report lands on
	// the exact line the guard occupied.
	if d.Pos.Line != guardLine {
		t.Errorf("fence finding at line %d, want the stripped guard's line %d", d.Pos.Line, guardLine)
	}
}
