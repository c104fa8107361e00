// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every substrate in this repository: the cluster machine
// model, the DataTap transport, the container control protocols, and the
// experiment harness all advance a shared virtual clock instead of wall
// time, so scenarios spanning thousands of virtual seconds execute in
// milliseconds and are exactly reproducible from a seed.
//
// Four styles of simulated activity are supported:
//
//   - plain callbacks scheduled with [Engine.At] / [Engine.After];
//   - processes ([Proc]) — coroutines (iter.Pull) resumed by the event
//     loop, in the style of SimPy. A process blocks with [Proc.Sleep],
//     [Queue.Get], [Event.Wait] and friends, which yield back to the
//     loop; exactly one process (or the engine loop) runs at any instant,
//     so process code needs no locking;
//   - continuation waiters: [Resource.AcquireThen] queues a callback in
//     the same FIFO as parked processes, and the grant schedules it at
//     exactly the point where it would wake a process. Activities that
//     only wait for units and time — network transfers, subscriber
//     deliveries — run as chains of such callbacks and need no process;
//   - poll ticks: [Proc.SleepWhile] and [Queue.GetPoll] keep a parked
//     process's periodic re-check in the kernel. Each tick or deadline is
//     the event the process's own loop would schedule, but a callback
//     evaluates the loop's predicate and re-arms, so the process resumes
//     only when its loop would do something other than poll again.
//
// Events run in (time, schedule order): same-time events are FIFO. The
// clock never runs backwards — scheduling in the past clamps to now — so
// the pending queue is a radix heap keyed on the last time it refilled,
// which costs a few bit operations per event, amortized, however many
// timers are pending. The one rule this puts on the engine: peeking at the next
// event's time (as [Engine.RunUntil] does before stopping short) must
// not advance that key, because the clock may then be set below the
// peeked time and events scheduled in between must still run first.
//
// [Engine.Stats] counts executed events, process spawns, process wakes
// and timeouts, always on and without a tracer.
package sim

import (
	"math/bits"
	"sort"
)

// Engine is the discrete-event scheduler: a virtual clock plus an ordered
// queue of future events. It is not safe for concurrent use; all
// interaction must happen from the driving goroutine or from within
// simulated processes.
type Engine struct {
	now     Time
	queue   eventQueue
	rng     *Rand
	procs   map[*Proc]struct{}
	running *Proc // the process executing right now; nil in the event loop
	tracer  Tracer
	free    *event // recycled events, chained through event.next
	stats   Stats
}

// Stats counts the kernel's work since the engine was created.
type Stats struct {
	// Events counts executed events.
	Events int64
	// Spawns counts processes started with [Engine.Go] / [Engine.GoAt].
	Spawns int64
	// Wakes counts resumptions of a parked process by a sleep ending,
	// an event firing, a queue hand-off or a resource grant. Process
	// starts and timeouts are not wakes.
	Wakes int64
	// Timeouts counts executed deadline events of timed waits, whether
	// or not the wait was still pending.
	Timeouts int64
	// Resumes counts every switch into a process: its start, each wake,
	// and each timeout that ends a pending wait.
	Resumes int64
}

// Time is virtual time: nanoseconds since the start of the simulation.
type Time int64

// Common virtual durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats t as seconds with millisecond precision, e.g. "12.345s".
func (t Time) String() string {
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	return neg + formatSeconds(t)
}

func formatSeconds(t Time) string {
	secs := int64(t / Second)
	ms := int64(t%Second) / int64(Millisecond)
	return itoa(secs) + "." + pad3(ms) + "s"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func pad3(v int64) string {
	s := itoa(v)
	for len(s) < 3 {
		s = "0" + s
	}
	return s
}

// Tracer receives kernel-level trace callbacks. All methods may be nil-safe
// no-ops; it exists so experiments can observe scheduling without the
// kernel importing higher layers.
type Tracer interface {
	// Event is invoked before every executed event.
	Event(at Time, what string)
}

type event struct {
	at   Time
	what string
	fn   func()
	next *event // freelist link while recycled
}

// eventQueue is a radix heap: a monotone priority queue over (at,
// schedule order). Events carry no sequence number: the order of the
// pushes is the tie-break, and the buckets keep it.
// It relies on the kernel's clock never running backwards. schedule
// clamps every time to now, and now is never below the last popped time,
// so no pending event is ever keyed below last, the time of the latest
// refill.
//
// An event lives in bucket bits.Len64(at ^ last): bucket 0 holds the
// events due exactly at last, and bucket i > 0 those whose time first
// differs from last at bit i-1. pop takes bucket 0 front to back; when it
// runs dry, refill makes the minimum time of the lowest non-empty bucket
// the new last and re-files that bucket's events, all of which land in
// lower buckets. Each bucket stays in schedule order: pushes append in
// schedule order, and a refill only fills buckets that are empty at that
// moment. So the pop sequence is exactly (at, schedule order), with
// same-time events FIFO.
//
// min must not move last: RunUntil peeks and may stop short, then set
// the clock below the peeked time, and a later schedule between the two
// would otherwise be keyed below last.
type eventQueue struct {
	buckets [65][]*event
	head    int    // next index to pop in buckets[0]
	mask    uint64 // bit i-1 set iff buckets[i] is non-empty, for i ≥ 1
	last    Time
	n       int
}

func (q *eventQueue) push(ev *event) {
	q.place(ev)
	q.n++
}

// place files ev in its bucket relative to last. Buckets keep their
// capacity, so once the pending set has peaked it allocates nothing.
func (q *eventQueue) place(ev *event) {
	i := bits.Len64(uint64(ev.at) ^ uint64(q.last))
	q.buckets[i] = append(q.buckets[i], ev)
	if i > 0 {
		q.mask |= 1 << (i - 1)
	}
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() *event {
	if q.head == len(q.buckets[0]) {
		q.refill()
	}
	b := q.buckets[0]
	ev := b[q.head]
	b[q.head] = nil
	q.head++
	if q.head == len(b) {
		q.buckets[0], q.head = b[:0], 0
	}
	q.n--
	return ev
}

// refill empties the lowest non-empty bucket into the lower ones, keyed
// on its minimum time; bucket 0 must be empty and some other bucket not.
func (q *eventQueue) refill() {
	i := bits.TrailingZeros64(q.mask) + 1
	b := q.buckets[i]
	q.last = minAt(b)
	q.mask &^= 1 << (i - 1)
	q.buckets[i] = b[:0]
	for k, ev := range b {
		q.place(ev)
		b[k] = nil
	}
}

// min reports the earliest pending time without moving last; the queue
// must be non-empty.
func (q *eventQueue) min() Time {
	if q.head < len(q.buckets[0]) {
		return q.last
	}
	return minAt(q.buckets[bits.TrailingZeros64(q.mask)+1])
}

// minAt returns the earliest time in a non-empty bucket.
func minAt(b []*event) Time {
	at := b[0].at
	for _, ev := range b[1:] {
		if ev.at < at {
			at = ev.at
		}
	}
	return at
}

// NewEngine returns an engine with its virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:   NewRand(seed),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Stats returns the kernel's work counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetTracer installs a kernel tracer (may be nil to remove).
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// At schedules fn to run at virtual time t. Scheduling in the past (or at
// the current instant) runs the callback on the next scheduler step at the
// current time, preserving FIFO order among same-time events.
func (e *Engine) At(t Time, fn func()) {
	e.schedule(t, "callback", fn)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

func (e *Engine) schedule(t Time, what string, fn func()) {
	if t < e.now {
		t = e.now
	}
	// Step recycles retired events here, so fresh allocations happen
	// only while the pending set is still growing.
	ev := e.free
	if ev == nil {
		ev = &event{}
	} else {
		e.free = ev.next
		ev.next = nil
	}
	ev.at, ev.what, ev.fn = t, what, fn
	e.queue.push(ev)
}

// Pending reports the number of scheduled (not yet executed) events.
func (e *Engine) Pending() int { return e.queue.n }

// Step executes the next scheduled event, advancing the clock to its time.
// It reports false if no events remain.
func (e *Engine) Step() bool {
	if e.queue.n == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.stats.Events++
	if e.tracer != nil {
		e.tracer.Event(ev.at, ev.what)
	}
	fn := ev.fn
	// Recycle before running: fn may itself schedule, and the retired
	// event must already be available for reuse.
	ev.fn, ev.what, ev.next = nil, "", e.free
	e.free = ev
	fn()
	return true
}

// Run executes events until none remain. Processes blocked on queues or
// events that will never fire are left parked, each a suspended coroutine
// that keeps what it references reachable; use [Engine.Blocked] to
// inspect them.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for e.queue.n > 0 && e.queue.min() <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Blocked returns the names of processes that are alive but currently
// parked (waiting on a queue, event, or resource). Useful in tests to
// assert clean shutdown: after a clean run it is empty and no process
// coroutine is left suspended.
func (e *Engine) Blocked() []string {
	var out []string
	for p := range e.procs {
		if p.parked && !p.done {
			out = append(out, p.name)
		}
	}
	sort.Strings(out)
	return out
}
