package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// mixedWaiters runs one Resource scenario in which waiter i is a parked
// process when bit i of procs is set and a continuation waiter otherwise.
// Waiter i arrives at (i+1)s asking for sizes[i] units, holds them for
// hold, and releases; the resource starts with capacity cap0, fully held
// until 10s, and grows by each of grows at 20s, 21s, ... It returns the
// grant log and the engine's counters.
func mixedWaiters(procs uint, sizes []int, cap0 int, hold Time, grows []int) ([]string, Stats) {
	e := NewEngine(1)
	r := NewResource(e, cap0)
	if cap0 > 0 && !r.TryAcquire(cap0) {
		panic("initial hold refused")
	}
	var log []string
	for i, n := range sizes {
		i, n := i, n
		at := Time(i+1) * Second
		granted := func() { log = append(log, fmt.Sprintf("w%d@%v", i, e.Now())) }
		if procs&(1<<i) != 0 {
			e.GoAt(at, fmt.Sprint("w", i), func(p *Proc) {
				r.Acquire(p, n)
				granted()
				p.Sleep(hold)
				r.Release(n)
			})
			continue
		}
		release := func() { r.Release(n) }
		onGrant := func() {
			granted()
			e.After(hold, release)
		}
		e.At(at, func() {
			if r.AcquireThen(n, onGrant) {
				onGrant()
			}
		})
	}
	if cap0 > 0 {
		e.At(10*Second, func() { r.Release(cap0) })
	}
	for k, g := range grows {
		g := g
		e.At(Time(20+k)*Second, func() { r.Grow(g) })
	}
	e.Run()
	return log, e.Stats()
}

// Processes and continuation waiters share one FIFO: whichever mix of
// the two queues up, grants follow arrival order, at the same instants,
// with the same number of engine events.
func TestResourceMixedWaitersGrantInArrivalOrder(t *testing.T) {
	sizes := []int{1, 1, 1, 1, 1}
	want, wantStats := mixedWaiters(0, sizes, 1, 2*Second, nil)
	wantLog := []string{"w0@10.000s", "w1@12.000s", "w2@14.000s", "w3@16.000s", "w4@18.000s"}
	if !reflect.DeepEqual(want, wantLog) {
		t.Fatalf("continuation-only grants %v, want %v", want, wantLog)
	}
	for procs := uint(1); procs < 1<<len(sizes); procs++ {
		got, st := mixedWaiters(procs, sizes, 1, 2*Second, nil)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("procs mask %05b: grants %v, want %v", procs, got, want)
		}
		if st.Events != wantStats.Events {
			t.Errorf("procs mask %05b: %d events, want %d", procs, st.Events, wantStats.Events)
		}
	}
}

// Grow, the crash unwedge path, grants mixed waiters in arrival order
// too: a large request at the head holds back smaller ones behind it
// until the capacity fits it, and then everything that fits is granted
// at the same instant, in queue order.
func TestResourceGrowGrantsMixedWaitersInOrder(t *testing.T) {
	sizes := []int{1, 3, 1, 1}
	grows := []int{1, 1 << 40}
	want := []string{"w0@20.000s", "w1@21.000s", "w2@21.000s", "w3@21.000s"}
	for procs := uint(0); procs < 1<<len(sizes); procs++ {
		got, _ := mixedWaiters(procs, sizes, 0, Hour, grows)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("procs mask %04b: grants %v, want %v", procs, got, want)
		}
	}
}

// AcquireThen on free units holds them at once and schedules nothing.
func TestAcquireThenImmediate(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	called := false
	if !r.AcquireThen(2, func() { called = true }) {
		t.Fatal("AcquireThen on free units reported queued")
	}
	if r.InUse() != 2 || e.Pending() != 0 {
		t.Fatalf("in use %d, %d events pending; want 2 held and nothing scheduled", r.InUse(), e.Pending())
	}
	if r.AcquireThen(1, func() { called = true }) {
		t.Fatal("AcquireThen on a full resource reported granted")
	}
	r.Release(1)
	if r.InUse() != 2 || e.Pending() != 1 {
		t.Fatalf("after release: in use %d, %d pending; want the grant holding 2 and scheduled", r.InUse(), e.Pending())
	}
	e.Run()
	if !called {
		t.Fatal("queued continuation never ran")
	}
}

// The engine counts events, spawns, process wakes and timeouts without a
// tracer.
func TestEngineStats(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(Second)           // wake 1
		ev.Wait(p)                // wake 2, by the fire below
		ev.WaitTimeout(p, Second) // fired: returns at once
	})
	e.Go("waiter", func(p *Proc) {
		NewEvent(e).WaitTimeout(p, 3*Second) // timeout 1
	})
	e.At(2*Second, ev.Fire)
	e.Run()
	want := Stats{Events: 6, Spawns: 2, Wakes: 2, Timeouts: 1, Resumes: 5}
	if got := e.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}
