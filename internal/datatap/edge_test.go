package datatap

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
)

// newFaultyChannel builds a channel over an 8-node machine with the given
// fault schedule installed.
func newFaultyChannel(t *testing.T, fcfg fault.Config, cfg Config) (*sim.Engine, *cluster.Machine, *Channel) {
	t.Helper()
	eng := sim.NewEngine(11)
	ccfg := cluster.Franklin()
	ccfg.Nodes = 8
	mach := cluster.New(eng, ccfg)
	sched, err := fault.NewSchedule(eng, fcfg)
	if err != nil {
		t.Fatalf("fault schedule: %v", err)
	}
	mach.SetFaults(sched)
	ch := NewChannel(eng, mach, "edge", cfg)
	return eng, mach, ch
}

// An already-expired deadline on an empty queue fails immediately — no
// virtual time may pass waiting for a descriptor the caller gave no
// budget for.
func TestFetchTimeoutExpiredDeadline(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	r := ch.NewReader(1)
	ok := true
	var at sim.Time = -1
	eng.Go("reader", func(p *sim.Proc) {
		_, ok = r.FetchPoll(p, 0, nil)
		at = p.Now()
	})
	eng.Run()
	if ok {
		t.Fatal("expired deadline on an empty queue should fail")
	}
	if at != 0 {
		t.Fatalf("expired deadline waited %v; should fail immediately", at)
	}
}

// The FetchPoll deadline covers the whole attempt: descriptors
// invalidated by a dead writer consume budget but do not restart it. A
// valid descriptor arriving after the original deadline must NOT be
// claimed — if it is, the per-descriptor loop restarted the clock.
func TestFetchTimeoutInvalidatedConsumesBudget(t *testing.T) {
	eng, _, ch := newFaultyChannel(t, fault.Config{
		Seed:    7,
		Crashes: []fault.Crash{{Node: 2, At: 5 * sim.Second}},
	}, Config{HomeNode: 1})
	dead := ch.NewWriter(2)
	late := ch.NewWriter(3)
	r := ch.NewReader(1)
	eng.Go("dead-writer", func(p *sim.Proc) {
		for i := int64(0); i < 2; i++ {
			if !dead.Write(p, i, 1<<20, nil) {
				t.Error("pre-crash write failed")
			}
		}
	})
	eng.Go("late-writer", func(p *sim.Proc) {
		p.Sleep(18 * sim.Second)
		late.Write(p, 100, 1<<20, nil)
	})
	var ok bool
	var elapsed sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(10 * sim.Second)
		start := p.Now()
		_, ok = r.FetchPoll(p, 5*sim.Second, nil)
		elapsed = p.Now() - start
	})
	eng.Run()
	if ok {
		t.Fatal("fetch should have timed out before the late descriptor arrived")
	}
	if elapsed < 5*sim.Second || elapsed > 8*sim.Second {
		t.Fatalf("elapsed %v; the two invalidations must consume the 5 s budget, not restart it", elapsed)
	}
	if got := ch.Stats().Invalidated; got != 2 {
		t.Fatalf("invalidated %d descriptors, want 2", got)
	}
	if ch.QueueLen() != 1 {
		t.Fatalf("queue %d; the post-deadline descriptor should still be parked", ch.QueueLen())
	}
}

// InvalidateNode is idempotent: the second purge of the same node finds
// nothing, and no counter is double-charged.
func TestDoubleInvalidateNode(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(2)
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 3; i++ {
			w.Write(p, i, 1<<20, nil)
		}
	})
	eng.Run()
	if n := ch.InvalidateNode(2); n != 3 {
		t.Fatalf("first purge dropped %d descriptors, want 3", n)
	}
	if n := ch.InvalidateNode(2); n != 0 {
		t.Fatalf("second purge dropped %d descriptors, want 0", n)
	}
	st := ch.Stats()
	if st.Invalidated != 3 || st.BytesInvalidated != 3<<20 {
		t.Fatalf("stats %+v; double purge must not double-charge", st)
	}
	if w.buf.InUse() != 0 {
		t.Fatalf("buffered %d after purge, want 0", w.buf.InUse())
	}
}

// RemoveWriter must release a writer parked on a full buffer: the write
// completes (the channel is still open) instead of deadlocking the
// producer process behind a detached endpoint.
func TestRemoveWriterRacingParkedWriter(t *testing.T) {
	eng, _, ch := newTestChannel(0, 1<<20)
	w := ch.NewWriter(2)
	var second bool
	var doneAt sim.Time = -1
	eng.Go("writer", func(p *sim.Proc) {
		w.Write(p, 0, 1<<20, nil) // fills the buffer
		second = w.Write(p, 1, 1<<20, nil)
		doneAt = p.Now()
	})
	eng.At(5*sim.Second, func() { ch.RemoveWriter(w) })
	eng.Run()
	if doneAt < 0 {
		t.Fatal("parked writer never released: RemoveWriter left it deadlocked")
	}
	if doneAt < 5*sim.Second {
		t.Fatalf("second write finished at %v, before the buffer could have been released", doneAt)
	}
	if !second {
		t.Fatal("write on the open channel should complete once released")
	}
	if len(ch.Writers()) != 0 {
		t.Fatalf("writer still attached: %d", len(ch.Writers()))
	}
	ch.RemoveWriter(w) // removing a detached writer is a no-op
}
