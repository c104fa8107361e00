package sim

import (
	"iter"
	"strconv"
)

// Proc is a simulated process: a coroutine (iter.Pull) the engine resumes
// from its event loop. At most one process runs at a time; a process
// relinquishes control by blocking in one of the kernel primitives
// (Sleep, Queue.Get, Event.Wait, Resource.Acquire, ...), which yields
// back to the event that resumed it. Because execution is strictly
// interleaved, process code may freely share data without locks.
type Proc struct {
	eng      *Engine
	name     string
	next     func() (struct{}, bool) // resumes the coroutine until it parks or ends
	yield    func(struct{}) bool     // parks the coroutine; valid inside it only
	parked   bool
	done     bool
	noPark   int    // open BeginNoPark sections
	wakeWhat string // "wake "+name, built once at spawn
	unparkFn func() // bound unpark, built once at spawn
	w        waiter // the proc's single in-flight wait (see newWait)

	// The poll tick of SleepWhile: its length, its predicate, and the
	// bound tick callback, built on the first SleepWhile.
	tickD    Time
	tickCond func() bool
	tickFn   func()
}

// Go starts fn as a new process at the current virtual time.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt starts fn as a new process at virtual time t.
func (e *Engine) GoAt(t Time, name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wakeWhat = "wake " + name
	p.unparkFn = p.unpark
	p.w.proc = p
	e.procs[p] = struct{}{}
	e.stats.Spawns++
	e.schedule(t, "start "+name, func() {
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			fn(p)
			p.done = true
			delete(e.procs, p)
		})
		p.resume()
	})
	return p
}

// park suspends the process and returns control to whoever resumed it
// (always unpark). A panic inside the process is re-raised by iter.Pull
// in unpark's caller, so it surfaces from [Engine.Step].
func (p *Proc) park() {
	if p.eng.running != p {
		panic("sim: proc " + strconv.Quote(p.name) + " parked outside its own process")
	}
	if p.noPark > 0 {
		panic("sim: proc " + strconv.Quote(p.name) + " parked inside a no-park section")
	}
	p.parked = true
	p.yield(struct{}{})
	p.parked = false
}

// BeginNoPark opens a section in which the process must not park: until
// the matching EndNoPark, a wait on it (Sleep, Queue.Get, Event.Wait,
// Resource.Acquire, ...) panics. Code that runs on a process between two
// waits and must not wait itself, such as a manager's message dispatch,
// declares so with a section. Sections nest.
func (p *Proc) BeginNoPark() { p.noPark++ }

// EndNoPark closes the innermost section BeginNoPark opened.
func (p *Proc) EndNoPark() { p.noPark-- }

// unpark wakes the parked process: it counts the wake and resumes it.
func (p *Proc) unpark() {
	p.eng.stats.Wakes++
	p.resume()
}

// resume runs the process until it parks again (or finishes). Must be
// called from the engine loop, i.e. from inside an executed event.
func (p *Proc) resume() {
	p.eng.stats.Resumes++
	p.eng.running = p
	p.next()
	p.eng.running = nil
}

// wake schedules the process to resume at the current virtual time.
func (p *Proc) wake(what string) {
	p.eng.schedule(p.eng.now, what, p.unparkFn)
}

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at creation.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d virtual time. Non-positive durations
// yield the processor (other same-time events run) without advancing time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now+d, p.wakeWhat, p.unparkFn)
	p.park()
}

// SleepWhile sleeps d, then sleeps d again for as long as cond holds
// after a tick: event for event it is
//
//	p.Sleep(d)
//	for cond() {
//		p.Sleep(d)
//	}
//
// but each tick is a kernel callback that checks cond and re-arms
// itself, so the process resumes only once, when cond fails. Each tick is
// the event Sleep would schedule, under the same name. cond runs in the
// event loop, not in the process, so it must not block; it takes no
// *Proc, so it cannot.
func (p *Proc) SleepWhile(d Time, cond func() bool) {
	if d < 0 {
		d = 0
	}
	if p.tickFn == nil {
		p.tickFn = p.tick // bound once per process
	}
	p.tickD, p.tickCond = d, cond
	p.eng.schedule(p.eng.now+d, p.wakeWhat, p.tickFn)
	p.park()
}

// tick ends one SleepWhile tick: it re-arms while the predicate holds and
// wakes the process once it fails.
func (p *Proc) tick() {
	if p.tickCond() {
		p.eng.schedule(p.eng.now+p.tickD, p.wakeWhat, p.tickFn)
		return
	}
	p.tickCond = nil
	p.unpark()
}

// waiter represents one parked process inside a queue/event/resource wait
// list. cancelled is set when a timeout fires first, so the structure's
// wake path must skip it.
//
// A process can only block on one primitive at a time, so every Proc
// embeds a single waiter that is reused across waits. seq counts the
// waits; wait lists hold generation-stamped waiterRefs so an entry left
// behind by an earlier wait (e.g. after a timeout) is detected stale
// instead of corrupting the next one.
type waiter struct {
	proc      *Proc
	cancelled bool
	woken     bool
	n         int    // a Queue putter's delivered mark (see putWaiter)
	at        Time   // a timed Queue get's deadline in force (see GetPoll)
	seq       uint64 // wait generation, bumped by newWait
}

// waiterRef is one wait-list entry: a pointer to the proc's embedded
// waiter plus the generation it was enlisted under.
type waiterRef struct {
	w   *waiter
	seq uint64
}

// valid reports whether the referenced wait is still the one this entry
// was created for.
func (r waiterRef) valid() bool { return r.seq == r.w.seq }

// newWait readies the proc's embedded waiter for one blocking wait and
// returns a reference to enlist in a wait list. Bumping the generation
// invalidates any stale references from previous waits.
func (p *Proc) newWait() waiterRef {
	p.w.seq++
	p.w.cancelled = false
	p.w.woken = false
	return waiterRef{w: &p.w, seq: p.w.seq}
}

// Event is a one-shot broadcast: processes wait until someone fires it.
// Waiting on an already-fired event returns immediately.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []waiterRef
}

// NewEvent returns an unfired event.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired and wakes all waiters. Subsequent Waits do not
// block. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, r := range ev.waiters {
		if r.valid() && !r.w.cancelled {
			r.w.woken = true
			r.w.proc.wake("event fire")
		}
	}
	ev.waiters = nil
}

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p.newWait())
	p.park()
}

// WaitTimeout blocks p until the event fires or d elapses; it reports
// whether the event fired. A non-positive d polls the fired state without
// scheduling a timer.
func (ev *Event) WaitTimeout(p *Proc, d Time) bool {
	if ev.fired {
		return true
	}
	if d <= 0 {
		return false
	}
	r := p.newWait()
	ev.waiters = append(ev.waiters, r)
	p.eng.schedule(p.eng.now+d, "event timeout", func() {
		p.eng.stats.Timeouts++
		if r.valid() && !r.w.woken {
			r.w.cancelled = true
			p.resume()
		}
	})
	p.park()
	return r.w.woken
}

// Resource is a counting semaphore over abstract units (cores, buffer
// slots, link tokens). Acquire blocks until the units are available and
// AcquireThen queues a continuation instead; both kinds of waiter share
// one FIFO.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  fifo[resWait]
}

// resWait is one Resource wait-list entry: a parked process's wait, or
// (fn non-nil) a continuation to schedule at the grant.
type resWait struct {
	ref waiterRef
	fn  func()
	n   int
}

// NewResource returns a resource with the given number of units.
func NewResource(e *Engine, capacity int) *Resource {
	r := MakeResource(e, capacity)
	return &r
}

// MakeResource returns a resource with the given number of units as a
// value, for embedding in a larger structure (a cluster node holds its
// NIC ports this way). Embed it before first use: a Resource must not be
// copied once it has waiters.
func MakeResource(e *Engine, capacity int) Resource {
	return Resource{eng: e, capacity: capacity}
}

// Capacity returns the total units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the currently acquired units.
func (r *Resource) InUse() int { return r.inUse }

// TryAcquire acquires n units if immediately available, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if r.waiters.len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Acquire blocks p until n units are available, then acquires them.
func (r *Resource) Acquire(p *Proc, n int) {
	if r.TryAcquire(n) {
		return
	}
	r.waiters.push(resWait{ref: p.newWait(), n: n})
	p.park()
}

// AcquireThen acquires n units for a continuation. It reports true when
// the units were free and are held now; fn is then not called. Otherwise
// fn joins the same FIFO as parked processes, and the grant schedules it
// at the current instant, holding the units, exactly where it would
// schedule a parked process's wake.
func (r *Resource) AcquireThen(n int, fn func()) bool {
	if r.TryAcquire(n) {
		return true
	}
	r.waiters.push(resWait{fn: fn, n: n})
	return false
}

// Release returns n units and wakes waiters whose requests now fit.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Resource.Release below zero")
	}
	r.dispatch()
}

// Grow adds n units of capacity (n may be negative to shrink; shrinking
// below in-use is allowed and simply delays future acquisitions).
func (r *Resource) Grow(n int) {
	r.capacity += n
	r.dispatch()
}

func (r *Resource) dispatch() {
	for r.waiters.len() > 0 {
		w := r.waiters.front()
		if w.fn == nil && (!w.ref.valid() || w.ref.w.cancelled) {
			r.waiters.pop()
			continue
		}
		if r.inUse+w.n > r.capacity {
			return
		}
		r.waiters.pop()
		r.inUse += w.n
		if w.fn != nil {
			r.eng.schedule(r.eng.now, "callback", w.fn)
			continue
		}
		w.ref.w.woken = true
		w.ref.w.proc.wake("resource grant")
	}
}
