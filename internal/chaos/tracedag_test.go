package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestTraceDAGOracleFires plants orphaned spans in the flight recorder of
// a clean chaos-failover run and checks the trace-dag oracle's lines: a
// span whose parent is still open, and one whose parent ID was never
// issued, are each reported in the oracle's message format; seven
// orphans give the first five; and once the ring has evicted a record
// the oracle says nothing, since a parent may have been evicted.
func TestTraceDAGOracleFires(t *testing.T) {
	base := baseFile(t)
	orphan := func(tr *trace.Recorder, parent trace.SpanID, cat, name string) string {
		sp := tr.Begin(parent, cat, name)
		line := fmt.Sprintf("span %d (%s/%s) references missing parent %d", sp.ID(), cat, name, parent)
		sp.End()
		return line
	}
	for _, c := range []struct {
		name  string
		plant func(tr *trace.Recorder) []string // returns the lines the oracle must print
	}{
		{"parent begun, never ended", func(tr *trace.Recorder) []string {
			open := tr.Begin(0, "ctl", "round.query")
			return []string{orphan(tr, open.ID(), "ctl", "serve.query")}
		}},
		{"parent never issued", func(tr *trace.Recorder) []string {
			return []string{orphan(tr, 1<<40, "datatap", "pull")}
		}},
		{"seven orphans, five lines", func(tr *trace.Recorder) []string {
			var want []string
			for i := 0; i < 7; i++ {
				want = append(want, orphan(tr, tr.Begin(0, "core", "compute").ID(), "evpath", "send"))
			}
			return want[:5]
		}},
		{"ring overflowed", func(tr *trace.Recorder) []string {
			for tr.Dropped() == 0 {
				tr.Instant(0, "sim", "flood").End()
			}
			orphan(tr, 1<<40, "datatap", "pull")
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			info := RunSchedule(base, nil)
			if info.Err != nil {
				t.Fatal(info.Err)
			}
			if got := checkTraceDAG(info); got != nil {
				t.Fatalf("clean run: %q", got)
			}
			want := c.plant(info.RT.Tracer())
			if got := checkTraceDAG(info); !reflect.DeepEqual(got, want) {
				t.Fatalf("trace-dag lines\n got %q\nwant %q", got, want)
			}
		})
	}
}
