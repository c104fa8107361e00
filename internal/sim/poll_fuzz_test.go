package sim

import (
	"fmt"
	"testing"
)

// Operation codes for FuzzPollEquivalence. The input is a sequence of
// (op, arg) byte pairs; op%8 picks the operation.
const (
	pollAdvance  = iota // move the schedule cursor arg time units on
	pollFlipStop        // flip poller arg%pollers's stop flag
	pollFlipWork        // flip poller arg%pollers's fetching flag
	pollPut             // put one item: bit 0 makes its pull fail, bits 1-3 its work time
	pollBurst           // put arg%4+1 items whose pulls succeed
	pollClose           // close the queue
	pollRunUntil        // run both engines to the cursor + arg
	pollAlign           // move the cursor to poller arg%pollers's next tick multiple
)

// pollMaxOps bounds one input's operations.
const pollMaxOps = 256

// pollPeriods are the pollers' tick lengths; two share a length so their
// ticks and deadlines fall on the same instants.
var pollPeriods = [...]Time{6, 9, 6}

const pollers = len(pollPeriods)

// pollPullTime is how long a fetched item's pull takes before it
// succeeds or fails.
const pollPullTime = 2

// pollWorld is one engine running the pollers, in either the loop form
// (Sleep and GetTimeout in the process, re-checking the predicates after
// every tick) or the callback form (SleepWhile and GetPoll, whose kernel
// callbacks re-check them). log gathers the kernel's events and the
// pollers' return values and resume instants.
type pollWorld struct {
	e        *Engine
	q        *Queue[int]
	stop     [pollers]bool
	fetching [pollers]bool
	loop     bool
	log      []string
}

func (w *pollWorld) Event(at Time, what string) {
	w.log = append(w.log, fmt.Sprintf("%d %s", at, what))
}

func (w *pollWorld) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d ", w.e.Now())+fmt.Sprintf(format, args...))
}

func newPollWorld(loop bool) *pollWorld {
	w := &pollWorld{e: NewEngine(1), loop: loop}
	w.q = NewQueue[int](w.e, 0)
	w.fetching = [pollers]bool{true, false, true}
	w.e.SetTracer(w)
	for k := range pollers {
		w.e.Go(fmt.Sprintf("poller-%d", k), func(p *Proc) { w.run(p, k) })
	}
	return w
}

// run is poller k's main loop, shaped as a pipeline replica's: idle while
// not fetching, fetch with a deadline while fetching, and spend an
// item's work time after a fetch succeeds. The loop form re-checks the
// predicates in the process after every tick and timeout; the log notes
// only where the loop goes on to do something else.
func (w *pollWorld) run(p *Proc, k int) {
	d := pollPeriods[k]
	idle := func() bool { return !w.stop[k] && !w.fetching[k] && !w.q.Closed() }
	keep := func() bool { return !w.q.Closed() && !w.stop[k] && w.fetching[k] }
	for {
		if w.stop[k] {
			w.note("poller-%d returns", k)
			return
		}
		if !w.fetching[k] {
			if w.q.Closed() {
				w.note("poller-%d returns on close", k)
				return
			}
			if w.loop {
				p.Sleep(d)
				for idle() {
					p.Sleep(d)
				}
			} else {
				p.SleepWhile(d, idle)
			}
			w.note("poller-%d idle resume", k)
			continue
		}
		var v int
		var ok bool
		for {
			v, ok = w.fetch(p, d, keep)
			if ok || !keep() {
				break
			}
		}
		w.note("poller-%d fetch %d %v", k, v, ok)
		if !ok {
			if w.q.Closed() {
				w.note("poller-%d returns on close", k)
				return
			}
			continue
		}
		p.Sleep(Time(v>>1) & 7)
	}
}

// fetch is a datatap fetch over the queue: a deadline d from now, a pull
// per item that fails for odd items, and retries after a failed pull
// that keep to the deadline in force. The loop form times out to its
// caller, which re-checks keep and fetches again; the callback form
// re-arms while keep holds, and returns to the caller only when the
// deadline finds an item it did not take.
func (w *pollWorld) fetch(p *Proc, d Time, keep func() bool) (int, bool) {
	deadline := w.e.Now() + d
	for {
		var v int
		var ok bool
		if w.loop {
			v, ok = w.q.GetTimeout(p, deadline-w.e.Now())
		} else {
			v, ok, deadline = w.q.GetPoll(p, deadline, d, keep)
		}
		if !ok {
			return 0, false
		}
		p.Sleep(pollPullTime)
		if v&1 == 0 {
			return v, true
		}
		w.note("pull of %d fails", v)
		if w.e.Now() >= deadline {
			return 0, false
		}
	}
}

// FuzzPollEquivalence runs the pollers' loop form and callback form side
// by side through decoded schedules of predicate flips, puts, closes and
// RunUntil stops. Both must execute the same kernel events, (time, name)
// for each, and the pollers must return the same values and resume at
// the same instants; the callback form may only resume its processes
// less often. Neither form keeps more getter entries than pollers.
//
// The seed corpus lives in testdata/fuzz/FuzzPollEquivalence.
func FuzzPollEquivalence(f *testing.F) {
	f.Fuzz(runPollOps)
}

// runPollOps decodes and executes one FuzzPollEquivalence input.
func runPollOps(t *testing.T, data []byte) {
	if len(data) > 2*pollMaxOps {
		data = data[:2*pollMaxOps]
	}
	worlds := [2]*pollWorld{newPollWorld(true), newPollWorld(false)}
	var cursor Time
	each := func(fn func(w *pollWorld)) {
		for _, w := range worlds {
			fn(w)
		}
	}
	at := func(fn func(w *pollWorld)) {
		each(func(w *pollWorld) { w.e.At(cursor, func() { fn(w) }) })
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		k := int(arg) % pollers
		switch op {
		case pollAdvance:
			cursor += Time(arg)
		case pollFlipStop:
			at(func(w *pollWorld) { w.stop[k] = !w.stop[k] })
		case pollFlipWork:
			at(func(w *pollWorld) { w.fetching[k] = !w.fetching[k] })
		case pollPut:
			at(func(w *pollWorld) { w.q.TryPut(int(arg)) })
		case pollBurst:
			for n := int(arg%4) + 1; n > 0; n-- {
				at(func(w *pollWorld) { w.q.TryPut(int(arg) &^ 1) })
			}
		case pollClose:
			at(func(w *pollWorld) { w.q.Close() })
		case pollRunUntil:
			each(func(w *pollWorld) { w.e.RunUntil(cursor + Time(arg)) })
		case pollAlign:
			d := pollPeriods[k]
			cursor = (max(cursor, worlds[0].e.Now())/d + 1) * d
		}
		each(func(w *pollWorld) {
			if w.q.getters.len() > pollers {
				t.Fatalf("op %d: %d getter entries for %d pollers", i/2, w.q.getters.len(), pollers)
			}
		})
	}
	// Wind down: every poller stops, the queue closes, the run drains.
	cursor++
	at(func(w *pollWorld) {
		for k := range pollers {
			w.stop[k] = true
		}
		w.q.Close()
	})
	each(func(w *pollWorld) { w.e.Run() })
	loop, cb := worlds[0], worlds[1]
	if i := firstDiff(loop.log, cb.log); i >= 0 {
		lo := max(0, i-8)
		t.Fatalf("forms diverge at record %d:\nloop form:     %q\ncallback form: %q",
			i, loop.log[lo:min(i+1, len(loop.log))], cb.log[lo:min(i+1, len(cb.log))])
	}
	ls, cs := loop.e.Stats(), cb.e.Stats()
	if ls.Events != cs.Events || ls.Timeouts != cs.Timeouts || cs.Wakes > ls.Wakes {
		t.Fatalf("stats: loop form %+v, callback form %+v", ls, cs)
	}
	each(func(w *pollWorld) {
		if b := w.e.Blocked(); len(b) != 0 || w.q.getters.len() != 0 {
			t.Fatalf("after the run (loop form %v): parked %v, %d getter entries", w.loop, b, w.q.getters.len())
		}
	})
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
