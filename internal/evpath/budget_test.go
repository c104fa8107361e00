package evpath

import (
	"testing"

	"repro/internal/trace"
)

// TestBridgeHopAllocBudget pins the steady-state allocations of one
// bridge hop: Submit on node 0, the queued drain, the wire transfer, and
// the delivery into a handler stone on node 1. The caller's Event is
// reused, so the count is what the overlay itself allocates per hop; a
// new allocation fails the test, and so does an unrecorded saving.
func TestBridgeHopAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		traced bool
		want   float64
		why    string
	}{
		{"untraced", false, 0, "the bridge queue's items are a head-indexed FIFO, and the event is reused"},
		{"traced", true, 0, "the send span's attrs go into ring storage the recorder owns, and its bytes attr stays an int64"},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, _, m0, m1 := bridgedManagers(t)
			if c.traced {
				rec := trace.New(eng, trace.Config{RingCap: 64})
				m0.SetTracer(rec)
				m1.SetTracer(rec)
			}
			var got int
			sink := m1.NewStone(func(*Event) { got++ })
			br := m0.NewBridge(sink)
			ev := &Event{Type: "ctl.query", Size: 256, Data: 1}
			hop := func() {
				ev.Span = 1
				br.Submit(ev)
				eng.Run()
			}
			for i := 0; i < 2*64; i++ {
				hop() // fill the freelists and the trace ring
			}
			if n := testing.AllocsPerRun(100, hop); n != c.want {
				t.Errorf("%v allocations per hop, budget %v (%s)", n, c.want, c.why)
			}
			if want := 2*64 + 101; got != want {
				t.Fatalf("delivered %d events, want %d", got, want)
			}
		})
	}
}
