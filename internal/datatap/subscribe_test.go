package datatap

import (
	"testing"

	"repro/internal/sim"
)

// Fan-out basics: every subscriber sees every descriptor published after
// it joined, and the ledger balances exactly.
func TestSubscribeFanOutConservation(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{BufCap: 4, TailCap: 8})
	a := h.Subscribe("a", 2)
	b := h.Subscribe("b", 3)
	eng.Go("writer", func(p *sim.Proc) {
		w := ch.NewWriter(0)
		for i := int64(0); i < 10; i++ {
			w.Write(p, i, 1<<16, nil)
		}
		ch.Close()
	})
	gotA, gotB := fetchAll(a), fetchAll(b)
	eng.Run()
	if !gotA.drained || !gotB.drained || gotA.n != 10 || gotB.n != 10 {
		t.Errorf("delivered a=%+v b=%+v, want 10 each and drained", *gotA, *gotB)
	}
	for _, snap := range h.Snapshots() {
		if u := snap.Unaccounted(); u != 0 {
			t.Errorf("subscriber %s unaccounted %d: %+v", snap.ID, u, snap)
		}
	}
	if st := h.Stats(); st.PublishStall != 0 {
		t.Errorf("publish stalled a writer for %v", st.PublishStall)
	}
}

// Edge case: a subscriber joining after the channel has closed is legal
// and owed nothing — its first fetch reports drained immediately instead
// of parking forever.
func TestLateJoinerOnClosedChannel(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{})
	eng.Go("driver", func(p *sim.Proc) {
		w := ch.NewWriter(0)
		w.Write(p, 0, 1<<16, nil)
		ch.Close()
		late := h.Subscribe("late", 2)
		called := false
		late.FetchThen(func(m *Meta, ok bool) {
			called = true
			if ok || m != nil {
				t.Errorf("late joiner fetched %v after close, want drained", m)
			}
		})
		if !called {
			t.Error("late joiner's fetch did not report drained at once")
		}
		snap := late.Snapshot()
		if snap.Published != 0 || snap.Unaccounted() != 0 {
			t.Errorf("late joiner owed something: %+v", snap)
		}
	})
	eng.Run()
}

// Edge case: a reconnecting subscriber whose durable cursor has fallen
// behind the tail's floor must be told to catch up through the spill
// store — Resume reports fromSpill and the deliveries that follow are
// spill reads, not tail restaging.
func TestReconnectCursorBehindTailFloorResumesFromSpill(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{BufCap: 2, TailCap: 4})
	sub := h.Subscribe("dash", 2)
	eng.Go("driver", func(p *sim.Proc) {
		if !h.Crash("dash") {
			t.Error("crash refused")
			return
		}
		w := ch.NewWriter(0)
		for i := int64(0); i < 12; i++ {
			w.Write(p, i, 1<<16, nil)
		}
		cursor, lag, fromSpill, ok := h.Resume("dash")
		if !ok || !fromSpill {
			t.Errorf("Resume cursor=%d lag=%d fromSpill=%v ok=%v, want fromSpill",
				cursor, lag, fromSpill, ok)
		}
		if cursor != 1 || lag != 12 {
			t.Errorf("Resume cursor=%d lag=%d, want 1/12", cursor, lag)
		}
		ch.Close()
	})
	got := fetchAll(sub)
	eng.Run()
	if !got.drained || got.n != 12 {
		t.Errorf("delivered %+v, want 12 and drained", *got)
	}
	snap := sub.Snapshot()
	// Tail cap 4 over 12 writes evicts sequences 1-8 to the spill store;
	// catch-up must have read exactly those from disk.
	if snap.SpillReads != 8 {
		t.Errorf("spill reads %d, want 8: %+v", snap.SpillReads, snap)
	}
	if snap.Resumes != 1 || snap.Unaccounted() != 0 {
		t.Errorf("resume ledger: %+v", snap)
	}
}

// fetchCount tallies one fetchAll chain.
type fetchCount struct {
	n       int64
	drained bool
}

// fetchAll keeps one fetch pending on s, the next started from each
// delivery's callback, until the subscriber drains.
func fetchAll(s *Subscriber) *fetchCount {
	c := &fetchCount{}
	var next func(*Meta, bool)
	next = func(_ *Meta, ok bool) {
		if !ok {
			c.drained = true
			return
		}
		c.n++
		s.FetchThen(next)
	}
	s.FetchThen(next)
	return c
}

// Edge case: a double crash of the same subscriber within one step is a
// no-op — the second Crash reports false and must not bump the reconnect
// generation, or a stale SubNotice could win the dedupe race.
func TestDoubleCrashSameStepIsIdempotent(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	h := ch.AttachHub(SubConfig{})
	sub := h.Subscribe("dash", 2)
	eng.Go("driver", func(p *sim.Proc) {
		w := ch.NewWriter(0)
		w.Write(p, 0, 1<<16, nil)
		if !h.Crash("dash") {
			t.Error("first crash refused")
		}
		gen := sub.Gen()
		if h.Crash("dash") {
			t.Error("second crash in the same step succeeded, want no-op")
		}
		if sub.Gen() != gen {
			t.Errorf("double crash bumped gen %d -> %d", gen, sub.Gen())
		}
		if !sub.Crashed() {
			t.Error("subscriber not crashed after double crash")
		}
		if _, _, _, ok := h.Resume("dash"); !ok {
			t.Error("resume after double crash refused")
		}
		if sub.Crashed() {
			t.Error("still crashed after resume")
		}
		ch.Close()
	})
	eng.Run()
	if snap := sub.Snapshot(); snap.Unaccounted() != 0 {
		t.Errorf("ledger after crash/crash/resume: %+v", snap)
	}
}
