package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestCallbackOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(3*Second, func() { got = append(got, 3) })
	e.At(1*Second, func() { got = append(got, 1) })
	e.At(2*Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*Second {
		t.Fatalf("final clock = %v, want 3s", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(5*Second, func() {
		e.At(1*Second, func() {
			ran = true
			if e.Now() != 5*Second {
				t.Errorf("past event ran at %v, want 5s", e.Now())
			}
		})
	})
	e.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(2*Second, func() {
		e.After(3*Second, func() { at = e.Now() })
	})
	e.Run()
	if at != 5*Second {
		t.Fatalf("After fired at %v, want 5s", at)
	}
}

func TestRunUntilStopsAndSetsClock(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Time{Second, 2 * Second, 10 * Second} {
		d := d
		e.At(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(5 * Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 5*Second {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

// RunUntil peeks at the next event's time and stops short of it; the
// clock then sits below that time, and events scheduled in between must
// still run first, in time order, with the equal-time pair FIFO.
func TestRunUntilStopShortThenScheduleBelow(t *testing.T) {
	e := NewEngine(1)
	var got []string
	at := func(t Time, name string) {
		e.At(t, func() { got = append(got, name) })
	}
	at(8, "8a")
	at(8, "8b")
	e.RunUntil(5)
	at(7, "7")
	at(6, "6")
	e.Run()
	if want := []string{"6", "7", "8a", "8b"}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// Once the pending set has peaked, the event queue recycles its bucket
// capacity: a hold model of 2,000 timers re-arming at random allocates
// nothing per event.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	startHold(e, 2000)
	for i := 0; i < 200_000; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2000; i++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 2,000 events in steady state, want 0", allocs)
	}
	if e.Pending() != 2000 {
		t.Fatalf("Pending = %d, want 2000", e.Pending())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var stamps []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Second)
			stamps = append(stamps, p.Now())
		}
	})
	e.Run()
	want := []Time{10 * Second, 20 * Second, 30 * Second}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps = %v, want %v", stamps, want)
		}
	}
}

// SleepWhile ticks like Sleep in a loop, event for event, but the
// process resumes once, when the predicate fails after a tick.
func TestProcSleepWhile(t *testing.T) {
	e := NewEngine(1)
	var names []string
	e.SetTracer(tracerFunc(func(_ Time, what string) { names = append(names, what) }))
	busy := false
	var resumed Time
	e.Go("idler", func(p *Proc) {
		p.SleepWhile(10*Second, func() bool { return !busy })
		resumed = p.Now()
	})
	e.At(35*Second, func() { busy = true })
	e.Run()
	if resumed != 40*Second {
		t.Fatalf("resumed at %v, want 40s (the first tick after the flip)", resumed)
	}
	want := []string{"start idler", "wake idler", "wake idler", "wake idler", "callback", "wake idler"}
	if !slices.Equal(names, want) {
		t.Fatalf("events %q, want %q", names, want)
	}
	if st := e.Stats(); st.Wakes != 1 {
		t.Fatalf("%d wakes, want 1", st.Wakes)
	}
}

// tracerFunc adapts a function to the Tracer interface.
type tracerFunc func(at Time, what string)

func (f tracerFunc) Event(at Time, what string) { f(at, what) }

// Re-arming a SleepWhile tick allocates nothing.
func TestProcSleepWhileTickAllocs(t *testing.T) {
	e := NewEngine(1)
	e.Go("idler", func(p *Proc) { p.SleepWhile(Second, func() bool { return true }) })
	e.RunUntil(10 * Second)
	allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + Second) })
	if allocs != 0 {
		t.Fatalf("%v allocations per tick, want 0", allocs)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	mk := func(name string, period Time) {
		e.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(period)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 2*Second)
	mk("b", 3*Second)
	e.Run()
	// a wakes at 2,4,6; b wakes at 3,6,9. At t=6 b's wake event was
	// scheduled earlier (t=3 vs t=4) so FIFO ordering runs b first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Go("boom", func(p *Proc) {
		p.Sleep(Second)
		panic("kaboom")
	})
	defer func() {
		if v := recover(); v != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", v)
		}
	}()
	e.Run()
	t.Fatal("expected panic")
}

// TestParkOutsideOwnProcessPanics pins that blocking a process from
// anywhere but its own body — an engine callback, or another process —
// fails loudly instead of wedging the run.
func TestParkOutsideOwnProcessPanics(t *testing.T) {
	const want = `sim: proc "victim" parked outside its own process`
	cases := map[string]func(e *Engine, victim *Proc){
		"callback": func(e *Engine, victim *Proc) {
			e.At(Second, func() { victim.Sleep(Second) })
		},
		"other process": func(e *Engine, victim *Proc) {
			e.Go("intruder", func(p *Proc) { victim.Sleep(Second) })
		},
	}
	for name, misuse := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(1)
			victim := e.Go("victim", func(p *Proc) { p.Sleep(Minute) })
			misuse(e, victim)
			defer func() {
				if v := recover(); v != want {
					t.Fatalf("recovered %v, want %q", v, want)
				}
			}()
			e.Run()
			t.Fatal("expected panic")
		})
	}
}

// TestParkInNoParkSectionPanics pins the no-park section: any wait on
// the process while a section is open panics, sections nest, and the
// process may wait again once the last one closes.
func TestParkInNoParkSectionPanics(t *testing.T) {
	const want = `sim: proc "pump" parked inside a no-park section`
	cases := map[string]func(p *Proc){
		"sleep":        func(p *Proc) { p.Sleep(0) },
		"queue get":    func(p *Proc) { NewQueue[int](p.Engine(), 1).Get(p) },
		"event wait":   func(p *Proc) { NewEvent(p.Engine()).Wait(p) },
		"after nested": func(p *Proc) { p.BeginNoPark(); p.EndNoPark(); p.Sleep(Second) },
	}
	for name, wait := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(1)
			e.Go("pump", func(p *Proc) {
				p.BeginNoPark()
				wait(p)
			})
			defer func() {
				if v := recover(); v != want {
					t.Fatalf("recovered %v, want %q", v, want)
				}
			}()
			e.Run()
			t.Fatal("expected panic")
		})
	}
	e := NewEngine(1)
	e.Go("pump", func(p *Proc) {
		p.BeginNoPark()
		p.BeginNoPark()
		p.EndNoPark()
		p.EndNoPark()
		p.Sleep(Second)
	})
	e.Run()
	if e.Now() != Second {
		t.Fatalf("clock at %v after the sections closed, want 1s", e.Now())
	}
}

func TestEventBroadcast(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Go("waiter", func(p *Proc) {
			ev.Wait(p)
			woke++
			if p.Now() != 7*Second {
				t.Errorf("woke at %v, want 7s", p.Now())
			}
		})
	}
	e.At(7*Second, ev.Fire)
	e.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
	if !ev.fired {
		t.Fatal("event not marked fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	ev.Fire()
	ok := false
	e.Go("late", func(p *Proc) {
		ev.Wait(p)
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("wait on fired event blocked")
	}
}

func TestEventWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	var gotFired, gotTimedOut bool
	e.Go("timeout", func(p *Proc) {
		gotTimedOut = !ev.WaitTimeout(p, 2*Second)
	})
	e.Go("fired", func(p *Proc) {
		gotFired = ev.WaitTimeout(p, 20*Second)
	})
	e.At(10*Second, ev.Fire)
	e.Run()
	if !gotTimedOut {
		t.Fatal("short wait should have timed out")
	}
	if !gotFired {
		t.Fatal("long wait should have seen the fire")
	}
}

// A non-positive deadline on WaitTimeout is a poll: true iff the event has
// already fired, never parking the caller or scheduling a timer.
func TestEventWaitTimeoutNonPositive(t *testing.T) {
	e := NewEngine(1)
	unfired := NewEvent(e)
	fired := NewEvent(e)
	fired.Fire()
	var a, b, c bool
	e.Go("poller", func(p *Proc) {
		a = unfired.WaitTimeout(p, 0)
		b = unfired.WaitTimeout(p, -5*Second)
		c = fired.WaitTimeout(p, 0)
	})
	e.Run()
	if a || b {
		t.Fatal("poll of unfired event reported fired")
	}
	if !c {
		t.Fatal("poll of fired event reported unfired")
	}
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("poll advanced time (%v) or left timers (%d)", e.Now(), e.Pending())
	}
}

func TestResourceAcquireRelease(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	var order []string
	worker := func(name string, hold Time) {
		e.Go(name, func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, name+"+")
			p.Sleep(hold)
			r.Release(1)
			order = append(order, name+"-")
		})
	}
	worker("a", 10*Second)
	worker("b", 10*Second)
	worker("c", 10*Second) // must wait for a or b
	e.Run()
	if r.InUse() != 0 {
		t.Fatalf("in use = %d after run", r.InUse())
	}
	if order[0] != "a+" || order[1] != "b+" {
		t.Fatalf("order = %v", order)
	}
	// c acquires only after a release.
	for i, s := range order {
		if s == "c+" {
			found := false
			for _, prev := range order[:i] {
				if prev == "a-" || prev == "b-" {
					found = true
				}
			}
			if !found {
				t.Fatalf("c acquired before any release: %v", order)
			}
		}
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	r.TryAcquire(1)
	var got []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Go(name, func(p *Proc) {
			r.Acquire(p, 1)
			got = append(got, name)
			r.Release(1)
		})
	}
	e.At(Second, func() { r.Release(1) })
	e.Run()
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

func TestResourceGrow(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 0)
	acquired := false
	e.Go("w", func(p *Proc) {
		r.Acquire(p, 3)
		acquired = true
	})
	e.At(Second, func() { r.Grow(2) })
	e.At(2*Second, func() { r.Grow(1) })
	e.Run()
	if !acquired {
		t.Fatal("grow did not satisfy waiter")
	}
	if r.capacity != 3 || r.InUse() != 3 {
		t.Fatalf("cap=%d inuse=%d", r.capacity, r.InUse())
	}
}

func TestResourceReleaseBelowZeroPanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Release(1)
}

func TestBlockedReporting(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	e.Go("stuck", func(p *Proc) { q.Get(p) })
	e.Run()
	blocked := e.Blocked()
	if len(blocked) != 1 || blocked[0] != "stuck" {
		t.Fatalf("Blocked() = %v", blocked)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var stamps []Time
		for i := 0; i < 4; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(e.Rand().Uniform(Second, 10*Second))
					stamps = append(stamps, p.Now())
				}
			})
		}
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0.000s"},
		{1500 * Millisecond, "1.500s"},
		{-2 * Second, "-2.000s"},
		{Minute + 50*Millisecond, "60.050s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2*Second + 500*Millisecond).Seconds() != 2.5 {
		t.Fatal("Seconds conversion wrong")
	}
	if (3 * Millisecond).Milliseconds() != 3 {
		t.Fatal("Milliseconds conversion wrong")
	}
}

// Property: the event queue always pops in nondecreasing time order with
// FIFO tie-breaking, for arbitrary insertion orders.
func TestEventHeapOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) > 200 {
			times = times[:200]
		}
		e := NewEngine(1)
		var got []Time
		for _, ti := range times {
			at := Time(ti) * Millisecond
			e.At(at, func() { got = append(got, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandHelpers(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2*Second, 5*Second)
		if v < 2*Second || v > 5*Second {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	if r.Uniform(3*Second, 3*Second) != 3*Second {
		t.Fatal("degenerate Uniform should return lo")
	}
}
