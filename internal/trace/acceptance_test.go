package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// runTraced builds and runs a shipped scenario with tracing enabled and
// returns the recorder.
func runTraced(t *testing.T, path string, seed int64) *trace.Recorder {
	t.Helper()
	cfg, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Trace = &trace.Config{}
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return rt.Tracer()
}

// Acceptance: two identical-seed fig7 runs must produce byte-identical
// Chrome trace exports.
func TestFig7TraceExportIsByteDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		rec := runTraced(t, "../../scenarios/fig7.json", 7)
		if err := trace.WriteChrome(&bufs[i], rec.Records()); err != nil {
			t.Fatal(err)
		}
	}
	if bufs[0].Len() == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("identical-seed runs produced different traces (%d vs %d bytes)",
			bufs[0].Len(), bufs[1].Len())
	}
	if n, err := trace.ValidateChrome(bytes.NewReader(bufs[0].Bytes())); err != nil || n == 0 {
		t.Fatalf("export does not validate: n=%d err=%v", n, err)
	}
}

// Acceptance: a fault-injected run auto-dumps the flight recorder on the
// first trigger — for scenarios/faults.json that is bonds missing its SLA.
func TestFaultsScenarioTriggersFlightDump(t *testing.T) {
	cfg, err := scenario.LoadFile("../../scenarios/faults.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = &trace.Config{}
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := rt.Tracer()
	var dump bytes.Buffer
	var gotReason string
	rec.OnTrigger(func(reason string) {
		gotReason = reason
		if err := trace.WriteText(&dump, rec.Records()); err != nil {
			t.Error(err)
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if gotReason == "" {
		t.Fatal("flight recorder never triggered on the fault scenario")
	}
	if !strings.HasPrefix(gotReason, "sla:") {
		t.Fatalf("first trigger %q, want an SLA violation", gotReason)
	}
	if dump.Len() == 0 {
		t.Fatal("flight dump is empty")
	}
}

// Acceptance: the critical-path analyzer must name the known-bottleneck
// container for fig7 (Bonds dominates end-to-end latency by design).
func TestCriticalPathNamesFig7Bottleneck(t *testing.T) {
	rec := runTraced(t, "../../scenarios/fig7.json", 0)
	cp := trace.AnalyzeCriticalPath(rec.Records())
	if cp == nil {
		t.Fatal("no critical path from a traced run")
	}
	if cp.Dominant != "bonds" {
		t.Fatalf("dominant container %q, want bonds", cp.Dominant)
	}
	var report bytes.Buffer
	if err := cp.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "dominant container: bonds") {
		t.Fatalf("report missing dominant line:\n%s", report.String())
	}
}
