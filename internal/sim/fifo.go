package sim

// fifo is a first-in first-out list over one slice and a head index: the
// kernel's wait lists and queue buffers. pop advances the head instead of
// sliding the slice off its front, and rewinds to the start of the
// backing array when the list empties; push compacts the live entries to
// the start, instead of growing, once the backing array is full and at
// least half of it is consumed. So a list that stays within a capacity it
// has reached allocates nothing, however its pushes and pops interleave.
// Vacated slots are zeroed, so the list keeps nothing reachable.
type fifo[T any] struct {
	buf  []T // buf[head:] are the live entries, oldest first
	head int
}

// len returns the number of live entries.
func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// push appends v at the tail.
func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) && 2*f.head >= cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// front returns the oldest entry; the list must be non-empty.
func (f *fifo[T]) front() T { return f.buf[f.head] }

// pop removes and returns the oldest entry; the list must be non-empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	f.rewind()
	return v
}

// rewind moves an empty list back to the start of its array.
func (f *fifo[T]) rewind() {
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
}

// all returns the live entries, oldest first. The slice aliases the list
// and is valid only until its next change.
func (f *fifo[T]) all() []T { return f.buf[f.head:] }

// removeAt deletes the live entry at index i (into all), keeping the
// order of the others.
func (f *fifo[T]) removeAt(i int) {
	live := f.buf[f.head:]
	n := copy(live[i:], live[i+1:])
	var zero T
	live[i+n] = zero
	f.buf = f.buf[:f.head+i+n]
	f.rewind()
}

// removeWhere deletes every entry for which drop holds, keeping the order
// of the others, and returns the number deleted.
func (f *fifo[T]) removeWhere(drop func(T) bool) int {
	live := f.buf[f.head:]
	kept := live[:0]
	for _, v := range live {
		if !drop(v) {
			kept = append(kept, v)
		}
	}
	clear(live[len(kept):])
	removed := len(live) - len(kept)
	f.buf = f.buf[:f.head+len(kept)]
	f.rewind()
	return removed
}

// reset empties the list, keeping its backing array.
func (f *fifo[T]) reset() {
	clear(f.buf)
	f.buf, f.head = f.buf[:0], 0
}
