package sim

// Queue is a FIFO channel between simulated processes. A capacity of zero
// means unbounded; otherwise Put blocks while the queue is full. Closed
// queues reject Put and drain remaining items through Get.
type Queue[T any] struct {
	eng     *Engine
	cap     int // 0 = unbounded
	items   fifo[T]
	getters fifo[waiterRef]
	putters fifo[*putWaiter[T]]
	putFree []*putWaiter[T] // recycled put entries
	timers  *getTimer[T]    // recycled get deadlines, chained through next
	closed  bool
}

type putWaiter[T any] struct {
	waiter
	val T
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{eng: e, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Full reports whether a Put would block right now.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.items.len() >= q.cap }

// Close marks the queue closed. Blocked getters receive zero values with
// ok=false once the buffer drains; blocked putters are woken with their
// puts rejected.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, pw := range q.putters.all() {
		if !pw.cancelled {
			pw.woken = true
			pw.proc.wake("queue closed (putter)")
		}
	}
	q.putters.reset()
	if q.items.len() == 0 {
		q.wakeClosedGetters()
	}
}

// wakeClosedGetters wakes every parked getter of a closed, drained queue
// and empties the getter list.
func (q *Queue[T]) wakeClosedGetters() {
	for _, g := range q.getters.all() {
		if g.valid() && !g.w.cancelled {
			g.w.woken = true
			g.w.proc.wake("queue closed (getter)")
		}
	}
	q.getters.reset()
}

// TryPut appends v if the queue is open and not full, reporting success.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || q.Full() {
		return false
	}
	q.deliver(v)
	return true
}

// Put appends v, blocking while the queue is full. It reports false if the
// queue was closed before the item could be enqueued.
func (q *Queue[T]) Put(p *Proc, v T) bool {
	if q.closed {
		return false
	}
	if !q.Full() {
		q.deliver(v)
		return true
	}
	pw := q.takePutWaiter(p, v)
	q.putters.push(pw)
	p.park()
	ok := !q.closed || pw.delivered()
	q.recyclePutWaiter(pw)
	return ok
}

// takePutWaiter pops a recycled put entry (or allocates on a freelist
// miss) and arms it for this put. The entry is owned by the blocked Put
// until it resumes, which recycles it.
func (q *Queue[T]) takePutWaiter(p *Proc, v T) *putWaiter[T] {
	if n := len(q.putFree); n > 0 {
		pw := q.putFree[n-1]
		q.putFree[n-1] = nil
		q.putFree = q.putFree[:n-1]
		pw.waiter = waiter{proc: p}
		pw.val = v
		return pw
	}
	return &putWaiter[T]{waiter: waiter{proc: p}, val: v}
}

func (q *Queue[T]) recyclePutWaiter(pw *putWaiter[T]) {
	var zero T
	pw.val = zero
	pw.waiter = waiter{}
	q.putFree = append(q.putFree, pw)
}

// delivered reports whether this putter's value made it into the queue: the
// dispatch path marks woken only when it consumes the value, while Close
// marks woken without consuming. We distinguish via cancelled==false &&
// value consumed, tracked by the n field (1 = delivered).
func (pw *putWaiter[T]) delivered() bool { return pw.n == 1 }

// deliver places v either directly into a waiting getter or the buffer.
func (q *Queue[T]) deliver(v T) {
	q.items.push(v)
	q.wakeGetters()
}

func (q *Queue[T]) wakeGetters() {
	for q.getters.len() > 0 && q.items.len() > 0 {
		g := q.getters.pop()
		if !g.valid() || g.w.cancelled {
			continue
		}
		g.w.woken = true
		g.w.proc.wake("queue item")
	}
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for {
		if q.items.len() > 0 {
			return q.take(), true
		}
		if q.closed {
			return v, false
		}
		q.await(p)
	}
}

// await parks p as a getter until an item or close wakes it.
func (q *Queue[T]) await(p *Proc) {
	q.getters.push(p.newWait())
	p.park()
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.take(), true
}

// GetTimeout is Get with a deadline d from now; ok is false on timeout or
// closed-and-drained. A non-positive d polls: it returns an available item
// or fails immediately without scheduling a timer (callers often compute
// deadline-Now(), which can go to zero or below).
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (v T, ok bool) {
	v, ok, _ = q.GetPoll(p, q.eng.now+d, 0, nil)
	return v, ok
}

// GetPoll is the polling form of the timed get: Get against an absolute
// deadline, which re-arms itself while keep holds. When the deadline
// passes on an open, empty queue and keep is non-nil and holds, the
// timer callback re-enlists p at the tail of the getters under a new wait
// generation and arms a fresh deadline period later, without resuming p:
// event for event, that is p timing out, checking keep and calling
// GetTimeout(p, period) again. Otherwise the timeout ends the wait with ok
// false, as GetTimeout's does; GetTimeout is GetPoll with keep nil. keep
// runs in the event loop, not in p, so it must not block, and period
// must be positive when keep is non-nil. GetPoll also returns the
// deadline in force when it returned, so a caller that retries after a
// failed attempt keeps to the re-armed deadline.
func (q *Queue[T]) GetPoll(p *Proc, deadline, period Time, keep func() bool) (v T, ok bool, at Time) {
	for {
		if q.items.len() > 0 {
			return q.take(), true, deadline
		}
		if q.closed || q.eng.now >= deadline {
			return v, false, deadline
		}
		var timedOut bool
		timedOut, deadline = q.awaitTimeout(p, deadline, period, keep)
		if timedOut {
			return v, false, deadline
		}
	}
}

// awaitTimeout parks p as a getter with a deadline; it reports whether
// the timer (rather than an item or close) ended the wait, and the
// deadline in force when it did. The timer outlives a wait that an item
// or close ends first, and finds its generation stale when it fires.
func (q *Queue[T]) awaitTimeout(p *Proc, deadline, period Time, keep func() bool) (bool, Time) {
	t := q.takeTimer()
	t.ref, t.period, t.keep = p.newWait(), period, keep
	p.w.at = deadline
	q.getters.push(t.ref)
	q.eng.schedule(deadline, "queue get timeout", t.fire)
	p.park()
	return p.w.cancelled, p.w.at
}

// getTimer is the deadline event of one timed get. Timers are recycled
// through their queue, and a re-arm reschedules the same bound callback,
// so neither a wait nor a poll tick allocates once the queue has a few
// spare timers.
type getTimer[T any] struct {
	q      *Queue[T]
	ref    waiterRef // the getter entry this deadline guards
	period Time      // re-arm length while keep holds
	keep   func() bool
	fire   func() // bound expire, built once per timer
	next   *getTimer[T]
}

// takeTimer pops a recycled timer, or builds one on a freelist miss.
func (q *Queue[T]) takeTimer() *getTimer[T] {
	t := q.timers
	if t == nil {
		t = &getTimer[T]{q: q}
		t.fire = t.expire
		return t
	}
	q.timers, t.next = t.next, nil
	return t
}

// expire runs when the deadline passes. A wait that an item, a close or a
// later wait already ended is stale: the timer only retires. Otherwise
// the getter leaves the wait list; it re-enlists under a fresh deadline
// while the poll's keep holds on an open, empty queue, and is resumed
// with its wait cancelled when it does not.
func (t *getTimer[T]) expire() {
	q := t.q
	q.eng.stats.Timeouts++
	r := t.ref
	if !r.valid() || r.w.woken {
		q.retireTimer(t)
		return
	}
	q.unlist(r)
	if t.keep != nil && !q.closed && q.items.len() == 0 && t.keep() {
		t.ref = r.w.proc.newWait()
		r.w.at = q.eng.now + t.period
		q.getters.push(t.ref)
		q.eng.schedule(r.w.at, "queue get timeout", t.fire)
		return
	}
	r.w.cancelled = true
	r.w.proc.resume()
	q.retireTimer(t)
}

// retireTimer returns a fired timer to the queue's freelist.
func (q *Queue[T]) retireTimer(t *getTimer[T]) {
	t.ref, t.keep = waiterRef{}, nil
	t.next, q.timers = q.timers, t
}

// unlist drops a getter entry, keeping the order of the others.
func (q *Queue[T]) unlist(r waiterRef) {
	for i, g := range q.getters.all() {
		if g == r {
			q.getters.removeAt(i)
			return
		}
	}
}

// RemoveWhere deletes buffered items matching pred, preserving order, and
// returns the number removed. Freed capacity admits blocked putters.
func (q *Queue[T]) RemoveWhere(pred func(T) bool) int {
	removed := q.items.removeWhere(pred)
	if removed > 0 {
		q.admitPutters()
	}
	return removed
}

// Each visits every buffered item in queue order without removing any.
// Auditors (e.g. byte-conservation checks) use it to account for items
// still in flight at the end of a run.
func (q *Queue[T]) Each(fn func(T)) {
	for _, v := range q.items.all() {
		fn(v)
	}
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.items.front(), true
}

func (q *Queue[T]) take() T {
	v := q.items.pop()
	q.admitPutters()
	if q.closed && q.items.len() == 0 {
		q.wakeClosedGetters()
	}
	return v
}

func (q *Queue[T]) admitPutters() {
	for q.putters.len() > 0 && !q.Full() {
		pw := q.putters.pop()
		if pw.cancelled {
			continue
		}
		q.items.push(pw.val)
		pw.n = 1 // delivered
		pw.woken = true
		pw.proc.wake("queue put admitted")
	}
	q.wakeGetters()
}
