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

func TestPassthroughChain(t *testing.T) {
	eng, m := localManager()
	var got []string
	sink := m.NewStone(Terminal(func(ev *Event) { got = append(got, ev.Type) }))
	mid := m.NewStone(nil)
	mid.Link(sink)
	src := m.NewStone(nil)
	src.Link(mid)
	eng.Go("p", func(p *sim.Proc) {
		src.Submit(&Event{Type: "a"})
		src.Submit(&Event{Type: "b"})
	})
	eng.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestFilterAndTypeFilter(t *testing.T) {
	eng, m := localManager()
	c := NewCounter()
	sink := m.NewStone(c.Action())
	f := m.NewStone(TypeFilter("keep", "also"))
	f.Link(sink)
	eng.Go("p", func(p *sim.Proc) {
		for _, ty := range []string{"keep", "drop", "also", "drop", "keep"} {
			f.Submit(&Event{Type: ty})
		}
	})
	eng.Run()
	if c.Total != 3 || c.ByType["keep"] != 2 || c.ByType["also"] != 1 {
		t.Fatalf("counter %+v", c)
	}
}

func TestTransformRewritesAndDrops(t *testing.T) {
	eng, m := localManager()
	var got []int
	sink := m.NewStone(Terminal(func(ev *Event) { got = append(got, ev.Data.(int)) }))
	tr := m.NewStone(Transform(func(ev *Event) *Event {
		v := ev.Data.(int)
		if v%2 == 1 {
			return nil
		}
		ev.Data = v * 10
		return ev
	}))
	tr.Link(sink)
	eng.Go("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			tr.Submit(&Event{Type: "n", Data: i})
		}
	})
	eng.Run()
	want := []int{0, 20, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestSplitClonesEvent(t *testing.T) {
	eng, m := localManager()
	seen := map[string]string{}
	mk := func(name string) *Stone {
		return m.NewStone(Terminal(func(ev *Event) {
			seen[name] = ev.Type
			ev.Type = name // mutation must not leak to sibling
		}))
	}
	split := m.NewStone(nil)
	split.Link(mk("left")).Link(mk("right"))
	eng.Go("p", func(p *sim.Proc) {
		split.Submit(&Event{Type: "src"})
	})
	eng.Run()
	if seen["left"] != "src" || seen["right"] != "src" {
		t.Fatalf("seen %v", seen)
	}
}

func TestUnlink(t *testing.T) {
	eng, m := localManager()
	c := NewCounter()
	sink := m.NewStone(c.Action())
	src := m.NewStone(nil)
	src.Link(sink)
	eng.Go("p", func(p *sim.Proc) {
		src.Submit(&Event{Type: "a"})
		src.Unlink(sink)
		src.Submit(&Event{Type: "b"})
	})
	eng.Run()
	if c.Total != 1 {
		t.Fatalf("total %d, want 1", c.Total)
	}
	if len(src.Targets()) != 0 {
		t.Fatal("unlink left targets")
	}
}

func TestAggregateCombines(t *testing.T) {
	eng, m := localManager()
	var got []int
	sink := m.NewStone(Terminal(func(ev *Event) { got = append(got, ev.Data.(int)) }))
	agg := m.NewStone(Aggregate(3, func(evs []*Event) *Event {
		sum := 0
		for _, e := range evs {
			sum += e.Data.(int)
		}
		return &Event{Type: "sum", Data: sum}
	}))
	agg.Link(sink)
	eng.Go("p", func(p *sim.Proc) {
		for i := 1; i <= 7; i++ {
			agg.Submit(&Event{Type: "n", Data: i})
		}
	})
	eng.Run()
	// 1+2+3=6, 4+5+6=15; 7 still buffered.
	if len(got) != 2 || got[0] != 6 || got[1] != 15 {
		t.Fatalf("got %v", got)
	}
}

func TestTerminalWithoutTargetsCountsDelivered(t *testing.T) {
	eng, m := localManager()
	s := m.NewStone(nil)
	eng.Go("p", func(p *sim.Proc) { s.Submit(&Event{Type: "x"}) })
	eng.Run()
	if m.Delivered() != 1 {
		t.Fatalf("delivered %d", m.Delivered())
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
	mb := NewMailbox(m1, 0)
	br := m0.NewBridge(mb.Stone, 0)
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
	mb := NewMailbox(m1, 0)
	br := m0.NewBridge(mb.Stone, 0)
	var submitDone sim.Time
	eng.Go("producer", func(p *sim.Proc) {
		br.Submit(&Event{Type: "msg", Size: 1 << 20})
		submitDone = p.Now()
	})
	eng.Run()
	if submitDone != 0 {
		t.Fatalf("submit blocked until %v; should be async", submitDone)
	}
	if mb.Len() != 1 {
		t.Fatalf("mailbox len %d", mb.Len())
	}
}

func TestBridgeBoundedDrops(t *testing.T) {
	eng, _, m0, m1 := bridgedManagers(t)
	var got []any
	br := m0.NewBridge(collect(m1, &got), 2)
	for i := 0; i < 10; i++ {
		br.Submit(&Event{Type: "m", Size: 1 << 24, Data: i})
	}
	if br.BridgeBacklog() != 2 {
		t.Fatalf("backlog %d, want the queue bound 2", br.BridgeBacklog())
	}
	eng.Run()
	// Nothing drains before the engine runs, so the bound admits the
	// first two and drops the other eight.
	if st := br.BridgeStats(); st.Sent != 2 || st.Dropped != 8 {
		t.Fatalf("stats %+v, want 2 sent and 8 dropped", st)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("delivered %v", got)
	}
}

func TestBridgeClose(t *testing.T) {
	eng, _, m0, m1 := bridgedManagers(t)
	var got []any
	br := m0.NewBridge(collect(m1, &got), 0)
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

func TestMailboxTimeoutAndTryRecv(t *testing.T) {
	eng, m := localManager()
	mb := NewMailbox(m, 0)
	if _, ok := mb.TryRecv(); ok {
		t.Fatal("TryRecv on empty should fail")
	}
	var timedOut bool
	eng.Go("c", func(p *sim.Proc) {
		_, ok := mb.RecvTimeout(p, sim.Second)
		timedOut = !ok
	})
	eng.Run()
	if !timedOut {
		t.Fatal("expected timeout")
	}
}

func TestNonBridgeStoneBridgeAccessors(t *testing.T) {
	_, m := localManager()
	s := m.NewStone(nil)
	s.CloseBridge() // no-op
	if s.BridgeBacklog() != 0 || s.BridgeStats().Sent != 0 {
		t.Fatal("non-bridge accessors should be zero")
	}
	if s.String() == "" || s.ID() == 0 || s.Manager() != m {
		t.Fatal("accessors broken")
	}
}

func TestMonitoringOverlayTree(t *testing.T) {
	// A 2-level aggregation overlay across nodes: leaves bridge samples
	// to an aggregator that averages pairs and forwards to a counter.
	eng := sim.NewEngine(9)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	root := NewManager(eng, mach, 0)
	var avgs []float64
	sink := root.NewStone(Terminal(func(ev *Event) { avgs = append(avgs, ev.Data.(float64)) }))
	agg := root.NewStone(Aggregate(2, func(evs []*Event) *Event {
		sum := 0.0
		for _, e := range evs {
			sum += e.Data.(float64)
		}
		return &Event{Type: "avg", Data: sum / float64(len(evs))}
	}))
	agg.Link(sink)
	for i := 1; i <= 2; i++ {
		leafMgr := NewManager(eng, mach, i)
		br := leafMgr.NewBridge(agg, 0)
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
	// separate bridge with its own transfer and network charges.
	eng := sim.NewEngine(9)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	m0 := NewManager(eng, mach, 0)
	m1 := NewManager(eng, mach, 1)
	m2 := NewManager(eng, mach, 2)
	var got []string
	var at sim.Time
	sink := m2.NewStone(Terminal(func(ev *Event) {
		got = append(got, ev.Data.(string))
		at = eng.Now()
	}))
	hop2 := m1.NewBridge(sink, 0)
	relay := m1.NewStone(Transform(func(ev *Event) *Event {
		ev.Data = ev.Data.(string) + "+relayed"
		return ev
	}))
	relay.Link(hop2)
	hop1 := m0.NewBridge(relay, 0)
	eng.Go("src", func(p *sim.Proc) {
		hop1.Submit(&Event{Type: "m", Size: 4096, Data: "orig"})
	})
	eng.Run()
	if len(got) != 1 || got[0] != "orig+relayed" {
		t.Fatalf("got %v", got)
	}
	if at == 0 {
		t.Fatal("multi-hop delivery should take network time")
	}
	// Two hops worth of messages on the wire.
	if mach.Stats().Messages < 2 {
		t.Fatalf("messages %d", mach.Stats().Messages)
	}
}

func TestSubmitStampsMetadataOnce(t *testing.T) {
	eng, m := localManager()
	var src StoneID
	var submitted sim.Time
	sink := m.NewStone(Terminal(func(ev *Event) {
		src = ev.Src
		submitted = ev.Submitted
	}))
	first := m.NewStone(nil)
	first.Link(sink)
	eng.At(7*sim.Second, func() {})
	eng.Go("p", func(p *sim.Proc) {
		p.Sleep(5 * sim.Second)
		first.Submit(&Event{Type: "x"})
	})
	eng.Run()
	if src != first.ID() {
		t.Fatalf("src %d, want %d", src, first.ID())
	}
	if submitted != 5*sim.Second {
		t.Fatalf("submitted %v", submitted)
	}
}

func TestCounterSeesEveryBranch(t *testing.T) {
	eng, m := localManager()
	c := NewCounter()
	a := m.NewStone(c.Action())
	b := m.NewStone(c.Action())
	split := m.NewStone(nil)
	split.Link(a).Link(b)
	eng.Go("p", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			split.Submit(&Event{Type: "x"})
		}
	})
	eng.Run()
	if c.Total != 6 {
		t.Fatalf("total %d, want 6 (3 events x 2 branches)", c.Total)
	}
}
