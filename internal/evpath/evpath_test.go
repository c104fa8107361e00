package evpath

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func localManager() (*sim.Engine, *Manager) {
	eng := sim.NewEngine(3)
	return eng, NewManager(eng, nil, 0)
}

// TestPassthroughChain: a handler stone that resubmits to another runs
// the whole chain inline, inside the first Submit, in submit order.
func TestPassthroughChain(t *testing.T) {
	eng, m := localManager()
	var got []string
	sink := m.NewStone(func(ev *Event) { got = append(got, ev.Type) })
	mid := m.NewStone(sink.Submit)
	src := m.NewStone(mid.Submit)
	eng.Go("p", func(p *sim.Proc) {
		src.Submit(&Event{Type: "a"})
		if len(got) != 1 {
			t.Error("a handler chain must run inside Submit")
		}
		src.Submit(&Event{Type: "b"})
	})
	eng.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func bridgedManagers(t *testing.T) (*sim.Engine, *cluster.Machine, *Manager, *Manager) {
	t.Helper()
	eng := sim.NewEngine(3)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	return eng, mach, NewManager(eng, mach, 0), NewManager(eng, mach, 1)
}

func TestBridgeDeliversAcrossNodes(t *testing.T) {
	eng, mach, m0, m1 := bridgedManagers(t)
	mb := NewMailbox(m1)
	br := m0.NewBridge(mb.Stone)
	var recvAt sim.Time
	var data any
	eng.Go("consumer", func(p *sim.Proc) {
		ev, ok := mb.Recv(p)
		if !ok {
			t.Error("mailbox closed")
			return
		}
		recvAt, data = p.Now(), ev.Data
	})
	eng.Go("producer", func(p *sim.Proc) {
		br.Submit(&Event{Type: "msg", Size: 1024, Data: "hello"})
	})
	eng.Run()
	if data != "hello" {
		t.Fatalf("data %v", data)
	}
	if recvAt == 0 {
		t.Fatal("delivery should take nonzero network time")
	}
	st := br.BridgeStats()
	if st.Sent != 1 || st.Bytes != 1024+descriptorBytes {
		t.Fatalf("stats %+v", st)
	}
	if mach.Stats().Messages == 0 {
		t.Fatal("bridge did not touch the interconnect")
	}
}

func TestBridgeSubmitIsAsync(t *testing.T) {
	eng, _, m0, m1 := bridgedManagers(t)
	var got []any
	br := m0.NewBridge(collect(m1, &got))
	var submitDone sim.Time
	eng.Go("producer", func(p *sim.Proc) {
		br.Submit(&Event{Type: "msg", Size: 1 << 20})
		submitDone = p.Now()
	})
	eng.Run()
	if submitDone != 0 {
		t.Fatalf("submit blocked until %v; should be async", submitDone)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d events, want 1", len(got))
	}
}

func TestBridgeClose(t *testing.T) {
	eng, _, m0, m1 := bridgedManagers(t)
	var got []any
	br := m0.NewBridge(collect(m1, &got))
	for i := 0; i < 3; i++ {
		br.Submit(&Event{Type: "m", Size: 100, Data: i})
	}
	br.CloseBridge()
	br.Submit(&Event{Type: "m", Size: 100, Data: 3})
	eng.Run()
	if st := br.BridgeStats(); st.Sent != 3 || st.Dropped != 1 {
		t.Fatalf("stats %+v, want the 3-event backlog sent and 1 late submit dropped", st)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %v", got)
	}
	if len(eng.Blocked()) != 0 {
		t.Fatalf("leaked procs: %v", eng.Blocked())
	}
}

// TestMailboxTimeoutAndTryRecv: RecvTimeout with a zero deadline is a
// try-receive that fails at once on an empty mailbox and returns a queued
// event; a positive deadline expires on an empty one.
func TestMailboxTimeoutAndTryRecv(t *testing.T) {
	eng, m := localManager()
	mb := NewMailbox(m)
	var tryEmpty, tryQueued, timedOut bool
	var tryAt sim.Time
	eng.Go("c", func(p *sim.Proc) {
		_, ok := mb.RecvTimeout(p, 0)
		tryEmpty, tryAt = !ok, p.Now()
		mb.Stone.Submit(&Event{Type: "x"})
		_, tryQueued = mb.RecvTimeout(p, 0)
		_, ok = mb.RecvTimeout(p, sim.Second)
		timedOut = !ok
	})
	eng.Run()
	if !tryEmpty || tryAt != 0 {
		t.Fatalf("try-receive on empty: failed %v at %v, want an immediate failure", tryEmpty, tryAt)
	}
	if !tryQueued {
		t.Fatal("try-receive missed a queued event")
	}
	if !timedOut || eng.Now() != sim.Second {
		t.Fatalf("timed out %v at %v, want a timeout at 1s", timedOut, eng.Now())
	}
}

func TestNonBridgeStoneBridgeAccessors(t *testing.T) {
	_, m := localManager()
	s := m.NewStone(func(*Event) {})
	s.CloseBridge() // no-op
	if s.BridgeStats() != (BridgeStats{}) {
		t.Fatal("non-bridge stats should be zero")
	}
}

func TestMonitoringOverlayTree(t *testing.T) {
	// A 2-level aggregation overlay across nodes: leaves bridge samples
	// to a root handler that averages each pair into the result list.
	eng := sim.NewEngine(9)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	root := NewManager(eng, mach, 0)
	var avgs, pair []float64
	agg := root.NewStone(func(ev *Event) {
		pair = append(pair, ev.Data.(float64))
		if len(pair) == 2 {
			avgs = append(avgs, (pair[0]+pair[1])/2)
			pair = pair[:0]
		}
	})
	for i := 1; i <= 2; i++ {
		leafMgr := NewManager(eng, mach, i)
		br := leafMgr.NewBridge(agg)
		val := float64(i * 10)
		eng.Go("leaf", func(p *sim.Proc) {
			br.Submit(&Event{Type: "sample", Size: 16, Data: val})
		})
	}
	eng.Run()
	if len(avgs) != 1 || avgs[0] != 15 {
		t.Fatalf("avgs %v", avgs)
	}
}

func TestMultiHopBridgeChain(t *testing.T) {
	// A three-node relay: events hop node0 -> node1 -> node2, each hop a
	// separate bridge with its own transfer and network charges. The
	// first hop's target is the second hop's bridge stone itself.
	eng := sim.NewEngine(9)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	m0 := NewManager(eng, mach, 0)
	m1 := NewManager(eng, mach, 1)
	m2 := NewManager(eng, mach, 2)
	var got []string
	var at sim.Time
	sink := m2.NewStone(func(ev *Event) {
		got = append(got, ev.Data.(string))
		at = eng.Now()
	})
	hop2 := m1.NewBridge(sink)
	hop1 := m0.NewBridge(hop2)
	eng.Go("src", func(p *sim.Proc) {
		hop1.Submit(&Event{Type: "m", Size: 4096, Data: "orig"})
	})
	eng.Run()
	if len(got) != 1 || got[0] != "orig" {
		t.Fatalf("got %v", got)
	}
	if at == 0 {
		t.Fatal("multi-hop delivery should take network time")
	}
	// Two hops worth of messages on the wire.
	if mach.Stats().Messages < 2 {
		t.Fatalf("messages %d", mach.Stats().Messages)
	}
	if hop1.BridgeStats().Sent != 1 || hop2.BridgeStats().Sent != 1 {
		t.Fatalf("hop stats %+v %+v, want one send each", hop1.BridgeStats(), hop2.BridgeStats())
	}
}
