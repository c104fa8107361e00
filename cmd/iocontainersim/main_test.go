package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates testdata/digests.txt from the current code instead of
// comparing against it: go test ./cmd/iocontainersim -run TestScenarioDigests -update
var update = flag.Bool("update", false, "rewrite testdata/digests.txt")

// runMainEnv makes the test binary act as iocontainersim itself, so the
// digest test hashes exactly what the command prints.
const runMainEnv = "IOCONTAINERSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		flag.CommandLine = flag.NewFlagSet("iocontainersim", flag.ExitOnError)
		os.Args = append([]string{"iocontainersim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const digestsFile = "testdata/digests.txt"

// TestScenarioDigests pins same-seed behaviour across commits: for every
// checked-in scenario — scenarios/*.json and the shrunk chaos reproducers
// in scenarios/regressions/ — it hashes the stdout of `iocontainersim
// -config F` and the Chrome trace JSON of the same run, and compares both
// against testdata/digests.txt. A refactor that claims byte-identical behaviour
// must leave every line unchanged; a deliberate behaviour change
// regenerates the file with -update.
func TestScenarioDigests(t *testing.T) {
	const dir = "../../scenarios"
	paths, err := filepath.Glob(dir + "/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios found (%v)", err)
	}
	regressions, err := filepath.Glob(dir + "/regressions/*.json")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, regressions...)
	var got []string
	for _, path := range paths {
		trace := filepath.Join(t.TempDir(), "trace.json")
		cmd := exec.Command(os.Args[0], "-config", path, "-trace", trace)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		traceJSON, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		name, err := filepath.Rel(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s stdout=%x trace=%x",
			filepath.ToSlash(name), sha256.Sum256(stdout), sha256.Sum256(traceJSON)))
	}

	if *update {
		if err := os.WriteFile(digestsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	if len(want) != len(got) {
		t.Errorf("%d scenarios, %s lists %d", len(got), digestsFile, len(want))
	}
	for i, line := range got {
		if i >= len(want) || want[i] != line {
			t.Errorf("digest changed:\n got  %s", line)
		}
	}
}

func readDigests(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(digestsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
