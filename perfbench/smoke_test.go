package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// Set-up children re-execute this test binary (os.Executable).
	if os.Getenv(childEnv) != "" {
		os.Exit(setupChild(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSmoke runs every workload in smoke mode, untraced and traced. Each
// run must pass its correctness and determinism checks with no failed op,
// and emit exactly the metrics BENCHMARK.json declares for its mode, each
// with the declared unit.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, perfbench has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, perfbench has %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for trace, want := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			t.Run(w.name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "5", "--seconds", "0", "--smoke",
					"--trace", strconv.Itoa(trace), "--root", "..", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
				}
				if trace == 1 && res.Metrics["bench.error_rate"].Value != 0 {
					t.Errorf("bench.error_rate = %v, want 0", res.Metrics["bench.error_rate"].Value)
				}
			})
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 1 || pct != 100.0/3 {
		t.Errorf("tail of three samples = %v at p%v, want the minimum", v, pct)
	}
}
