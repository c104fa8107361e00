package sim

// Queue is a FIFO channel between simulated processes. A capacity of zero
// means unbounded; otherwise Put blocks while the queue is full. Closed
// queues reject Put and drain remaining items through Get.
type Queue[T any] struct {
	eng     *Engine
	cap     int // 0 = unbounded
	items   []T
	getters []waiterRef
	putters []*putWaiter[T]
	putFree []*putWaiter[T] // recycled put entries
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
func (q *Queue[T]) Len() int { return len(q.items) }

// Cap returns the capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Full reports whether a Put would block right now.
func (q *Queue[T]) Full() bool { return q.cap > 0 && len(q.items) >= q.cap }

// Close marks the queue closed. Blocked getters receive zero values with
// ok=false once the buffer drains; blocked putters are woken with their
// puts rejected.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, pw := range q.putters {
		if !pw.cancelled {
			pw.woken = true
			pw.proc.wake("queue closed (putter)")
		}
	}
	q.putters = nil
	if len(q.items) == 0 {
		for _, g := range q.getters {
			if g.valid() && !g.w.cancelled {
				g.w.woken = true
				g.w.proc.wake("queue closed (getter)")
			}
		}
		q.getters = nil
	}
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
	q.putters = append(q.putters, pw)
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
	return q.allocPutWaiter(p, v)
}

//iocheck:cold
func (q *Queue[T]) allocPutWaiter(p *Proc, v T) *putWaiter[T] {
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
	q.items = append(q.items, v)
	q.wakeGetters()
}

func (q *Queue[T]) wakeGetters() {
	for len(q.getters) > 0 && len(q.items) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
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
		if len(q.items) > 0 {
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
	q.getters = append(q.getters, p.newWait())
	p.park()
}

// TryGet removes the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.take(), true
}

// GetTimeout is Get with a deadline d from now; ok is false on timeout or
// closed-and-drained. A non-positive d polls: it returns an available item
// or fails immediately without scheduling a timer (callers often compute
// deadline-Now(), which can go to zero or below).
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (v T, ok bool) {
	if len(q.items) > 0 {
		return q.take(), true
	}
	if q.closed || d <= 0 {
		return v, false
	}
	deadline := q.eng.now + d
	for {
		if q.awaitTimeout(p, deadline) {
			return v, false
		}
		if len(q.items) > 0 {
			return q.take(), true
		}
		if q.closed {
			return v, false
		}
		if q.eng.now >= deadline {
			return v, false
		}
	}
}

// awaitTimeout parks p as a getter with a deadline; it reports whether
// the timer (rather than an item or close) ended the wait. A stale timer
// from an earlier round finds its generation bumped and does nothing.
func (q *Queue[T]) awaitTimeout(p *Proc, deadline Time) bool {
	r := p.newWait()
	q.getters = append(q.getters, r)
	//iocheck:allow hotbox timer closures arm only on the blocking path, not per event
	q.eng.schedule(deadline, "queue get timeout", func() {
		q.eng.stats.Timeouts++
		if r.valid() && !r.w.woken {
			r.w.cancelled = true
			p.resume()
		}
	})
	p.park()
	return r.w.cancelled
}

// RemoveWhere deletes buffered items matching pred, preserving order, and
// returns the number removed. Freed capacity admits blocked putters.
func (q *Queue[T]) RemoveWhere(pred func(T) bool) int {
	kept := q.items[:0]
	for _, v := range q.items {
		if !pred(v) {
			kept = append(kept, v)
		}
	}
	removed := len(q.items) - len(kept)
	var zero T
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = zero
	}
	q.items = kept
	if removed > 0 {
		q.admitPutters()
	}
	return removed
}

// Each visits every buffered item in queue order without removing any.
// Auditors (e.g. byte-conservation checks) use it to account for items
// still in flight at the end of a run.
func (q *Queue[T]) Each(fn func(T)) {
	for _, v := range q.items {
		fn(v)
	}
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.items[0], true
}

func (q *Queue[T]) take() T {
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	q.admitPutters()
	if q.closed && len(q.items) == 0 {
		for _, g := range q.getters {
			if g.valid() && !g.w.cancelled {
				g.w.woken = true
				g.w.proc.wake("queue closed (getter)")
			}
		}
		q.getters = nil
	}
	return v
}

func (q *Queue[T]) admitPutters() {
	for len(q.putters) > 0 && !q.Full() {
		pw := q.putters[0]
		q.putters = q.putters[1:]
		if pw.cancelled {
			continue
		}
		//iocheck:allow hotalloc amortized growth of the queue's ring buffer, not per-event garbage
		q.items = append(q.items, pw.val)
		pw.n = 1 // delivered
		pw.woken = true
		pw.proc.wake("queue put admitted")
	}
	q.wakeGetters()
}
