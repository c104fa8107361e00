package evpath

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// faultyManagers is bridgedManagers on a machine with a fault schedule.
func faultyManagers(t *testing.T, cfg fault.Config) (*sim.Engine, *fault.Schedule, *Manager, *Manager) {
	t.Helper()
	eng, mach, m0, m1 := bridgedManagers(t)
	s, err := fault.NewSchedule(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mach.SetFaults(s)
	return eng, s, m0, m1
}

// collect returns a handler stone on m recording each event's Data.
func collect(m *Manager, got *[]any) *Stone {
	return m.NewStone(func(ev *Event) { *got = append(*got, ev.Data) })
}

func TestBridgeFIFOAcrossBursts(t *testing.T) {
	eng, _, m0, m1 := bridgedManagers(t)
	var got []any
	br := m0.NewBridge(collect(m1, &got))
	// Three bursts: the second lands while the first is still on the
	// wire, the third after the bridge has gone idle.
	for burst, at := range []sim.Time{0, sim.Millisecond, 10 * sim.Second} {
		eng.At(at, func() {
			for i := 0; i < 4; i++ {
				br.Submit(&Event{Type: "m", Size: 1 << 16, Data: burst*4 + i})
			}
		})
	}
	eng.Run()
	if len(got) != 12 {
		t.Fatalf("delivered %d events, want 12", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v, want submit order", got)
		}
	}
	if st := br.BridgeStats(); st.Sent != 12 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBridgeFaultDropsCountedOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    fault.Config
		crash  int // node crashed before the submit (-1: none)
		failed int64
	}{
		{"ctl-fault", fault.Config{Drops: []fault.DropWindow{{From: 0, Until: sim.Hour, Prob: 1}}}, -1, 0},
		{"dead-sender", fault.Config{}, 0, 1},
		{"wire", fault.Config{}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, s, m0, m1 := faultyManagers(t, tc.cfg)
			var got []any
			br := m0.NewBridge(collect(m1, &got))
			if tc.crash >= 0 {
				s.Crash(tc.crash)
			}
			br.Submit(&Event{Type: "m", Size: 100})
			eng.Run()
			if st := br.BridgeStats(); st.Dropped != 1 || st.Sent != 0 {
				t.Fatalf("stats %+v, want exactly one drop", st)
			}
			if len(got) != 0 {
				t.Fatalf("delivered %v", got)
			}
			if fs := s.Stats(); fs.SendsFailed != tc.failed {
				t.Fatalf("sends failed %d, want %d", fs.SendsFailed, tc.failed)
			}
		})
	}
}

func TestBridgeRestampsSpanPerHop(t *testing.T) {
	eng := sim.NewEngine(9)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	rec := trace.New(eng, trace.Config{})
	var ms []*Manager
	for node := 0; node < 3; node++ {
		m := NewManager(eng, mach, node)
		m.SetTracer(rec)
		ms = append(ms, m)
	}
	var final trace.SpanID
	sink := ms[2].NewStone(func(ev *Event) { final = ev.Span })
	hop2 := ms[1].NewBridge(sink)
	hop1 := ms[0].NewBridge(hop2)
	root := rec.Begin(0, "test", "root")
	rootID := root.ID() // before End: spans recycle once ended
	root.End()
	hop1.Submit(&Event{Type: "m", Size: 64, Span: rootID})
	eng.Run()
	var sends []trace.Record
	for _, r := range rec.Records() {
		if r.Cat == "evpath" && r.Name == "send" {
			sends = append(sends, r)
		}
	}
	if len(sends) != 2 {
		t.Fatalf("%d send spans, want one per hop", len(sends))
	}
	if sends[0].Parent != rootID || sends[1].Parent != sends[0].ID || final != sends[1].ID {
		t.Fatalf("hop chain broken: root %d, sends %+v, delivered span %d", rootID, sends, final)
	}
}

func TestNilMachineBridgeDeliversInStep(t *testing.T) {
	eng, m := localManager()
	var got []any
	var at []sim.Time
	sink := m.NewStone(func(ev *Event) {
		got = append(got, ev.Data)
		at = append(at, eng.Now())
	})
	br := m.NewBridge(sink)
	eng.At(sim.Second, func() {
		br.Submit(&Event{Type: "m", Data: 0})
		br.Submit(&Event{Type: "m", Data: 1})
		if len(got) != 0 {
			t.Error("a bridge delivered inside Submit; it must be asynchronous")
		}
	})
	eng.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("delivered %v", got)
	}
	if at[0] != sim.Second || at[1] != sim.Second {
		t.Fatalf("delivered at %v; a cost-free bridge takes no virtual time", at)
	}
	if st := br.BridgeStats(); st.Sent != 2 || st.Bytes != 2*descriptorBytes {
		t.Fatalf("stats %+v", st)
	}
}

func TestNewBridgeSpawnsNoProcess(t *testing.T) {
	eng, _, m0, m1 := bridgedManagers(t)
	var got []any
	sink := collect(m1, &got)
	for i := 0; i < 8; i++ {
		m0.NewBridge(sink).Submit(&Event{Type: "m", Size: 100, Data: i})
	}
	eng.Run()
	if len(got) != 8 {
		t.Fatalf("delivered %d, want 8", len(got))
	}
	if st := eng.Stats(); st.Spawns != 0 || st.Wakes != 0 {
		t.Fatalf("kernel stats %+v: bridges must spawn and wake no process", st)
	}
}

// TestClosedBridgeDropTraced: a submit after CloseBridge is dropped,
// counted once, and traced as a drop instant whose why is "closed".
func TestClosedBridgeDropTraced(t *testing.T) {
	eng, _, m0, m1 := bridgedManagers(t)
	rec := trace.New(eng, trace.Config{})
	m0.SetTracer(rec)
	var got []any
	br := m0.NewBridge(collect(m1, &got))
	br.CloseBridge()
	br.Submit(&Event{Type: "m", Size: 100})
	eng.Run()
	if st := br.BridgeStats(); st.Dropped != 1 || st.Sent != 0 {
		t.Fatalf("stats %+v, want exactly one drop", st)
	}
	if len(got) != 0 {
		t.Fatalf("delivered %v", got)
	}
	var whys []string
	for _, r := range rec.Records() {
		if r.Cat == "evpath" && r.Name == "drop" && r.Instant {
			whys = append(whys, r.Attr("why"))
		}
	}
	if len(whys) != 1 || whys[0] != "closed" {
		t.Fatalf("drop instants' why %q, want one \"closed\"", whys)
	}
}
