package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueUnboundedFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			p.Sleep(Second)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("unexpected close")
			}
			got = append(got, v)
		}
	})
	e.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueueBoundedBlocksPutter(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 2)
	var putDone []Time
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Put(p, i)
			putDone = append(putDone, p.Now())
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * Second)
			q.Get(p)
		}
	})
	e.Run()
	// First two puts immediate; third unblocks at first get (t=10),
	// fourth at second get (t=20).
	want := []Time{0, 0, 10 * Second, 20 * Second}
	for i := range want {
		if putDone[i] != want[i] {
			t.Fatalf("putDone = %v, want %v", putDone, want)
		}
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[string](e, 0)
	var at Time
	var val string
	e.Go("consumer", func(p *Proc) {
		v, ok := q.Get(p)
		if !ok {
			t.Error("closed?")
		}
		val, at = v, p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(3 * Second)
		q.Put(p, "x")
	})
	e.Run()
	if val != "x" || at != 3*Second {
		t.Fatalf("val=%q at=%v", val, at)
	}
}

func TestQueueTryPutTryGet(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 1)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty should fail")
	}
	if !q.TryPut(1) {
		t.Fatal("TryPut on empty should succeed")
	}
	if q.TryPut(2) {
		t.Fatal("TryPut on full should fail")
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	v, ok := q.TryGet()
	if !ok || v != 1 {
		t.Fatalf("TryGet = %d,%v", v, ok)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	q.TryPut(1)
	q.TryPut(2)
	q.Close()
	if q.TryPut(3) {
		t.Fatal("TryPut after close should fail")
	}
	var got []int
	closedSeen := false
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				closedSeen = true
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	if !closedSeen || len(got) != 2 {
		t.Fatalf("closed=%v got=%v", closedSeen, got)
	}
}

func TestQueueCloseWakesBlockedGetter(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	woken := false
	e.Go("consumer", func(p *Proc) {
		_, ok := q.Get(p)
		if ok {
			t.Error("expected closed")
		}
		woken = true
	})
	e.At(Second, q.Close)
	e.Run()
	if !woken {
		t.Fatal("blocked getter not woken by close")
	}
}

func TestQueueCloseWakesBlockedPutter(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 1)
	q.TryPut(0)
	rejected := false
	e.Go("producer", func(p *Proc) {
		if !q.Put(p, 1) {
			rejected = true
		}
	})
	e.At(Second, q.Close)
	e.Run()
	if !rejected {
		t.Fatal("blocked putter should be rejected on close")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	var timedOut, gotIt bool
	e.Go("fast", func(p *Proc) {
		_, ok := q.GetTimeout(p, 2*Second)
		timedOut = !ok
	})
	e.Go("slow", func(p *Proc) {
		v, ok := q.GetTimeout(p, 20*Second)
		gotIt = ok && v == 99
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(5 * Second)
		q.Put(p, 99)
	})
	e.Run()
	if !timedOut {
		t.Fatal("fast getter should time out")
	}
	if !gotIt {
		t.Fatal("slow getter should receive the item")
	}
}

func TestQueueGetTimeoutImmediate(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	q.TryPut(5)
	var v int
	var ok bool
	e.Go("c", func(p *Proc) { v, ok = q.GetTimeout(p, Second) })
	e.Run()
	if !ok || v != 5 {
		t.Fatalf("got %d,%v", v, ok)
	}
}

// A getter whose deadline passes leaves the wait list at once, and the
// live getters keep their order: a thousand timed-out polls on an empty
// queue leave no entries behind, and an item still goes to the getter
// that has waited longest.
func TestQueueTimedOutGettersLeaveWaitList(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	var first, second int
	e.Go("first", func(p *Proc) { first, _ = q.Get(p) })
	e.Go("poller", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			if _, ok := q.GetTimeout(p, Second); ok {
				t.Error("poll on an empty queue succeeded")
			}
		}
	})
	e.Go("second", func(p *Proc) { second, _ = q.Get(p) })
	e.RunUntil(2000 * Second)
	if n := q.getters.len(); n != 2 {
		t.Fatalf("%d getter entries after 1,000 timed-out polls, want the 2 live getters", n)
	}
	q.TryPut(1)
	q.TryPut(2)
	e.Run()
	if first != 1 || second != 2 {
		t.Fatalf("items went to first=%d second=%d, want 1 and 2", first, second)
	}
}

// GetPoll re-arms its deadline from the timer callback while keep holds:
// the process resumes once, with the item, and the deadline it reports
// is the re-armed one.
func TestQueueGetPollRearms(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	var v int
	var ok bool
	var at, resumed Time
	e.Go("poller", func(p *Proc) {
		v, ok, at = q.GetPoll(p, Second, Second, func() bool { return true })
		resumed = p.Now()
	})
	e.At(3500*Millisecond, func() { q.TryPut(7) })
	e.Run()
	if !ok || v != 7 || resumed != 3500*Millisecond || at != 4*Second {
		t.Fatalf("GetPoll = %d, %v, deadline %v at %v; want 7, true, deadline 4s at 3.5s", v, ok, at, resumed)
	}
	if st := e.Stats(); st.Timeouts != 4 || st.Wakes != 1 {
		t.Fatalf("stats %+v, want 4 timeouts (3 re-arms and a stale one) and 1 wake", st)
	}
}

// An expiring GetTimeout resumes its process once, and that resume is a
// timeout, not a wake.
func TestGetTimeoutCountsResume(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	var before, after Stats
	e.Go("getter", func(p *Proc) {
		before = e.Stats()
		if _, ok := q.GetTimeout(p, Second); ok {
			t.Error("GetTimeout on an empty queue succeeded")
		}
		after = e.Stats()
	})
	e.Run()
	if before.Resumes != 1 {
		t.Fatalf("start counted %d resumes, want 1", before.Resumes)
	}
	if d := after.Resumes - before.Resumes; d != 1 || after.Wakes != 0 {
		t.Fatalf("timeout counted %d resumes and %d wakes, want 1 and 0", d, after.Wakes)
	}
}

// Re-arming a poll's deadline allocates nothing: the timer reschedules
// its own bound callback and the getter entry reuses the wait list.
func TestQueueGetPollRearmAllocs(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	e.Go("poller", func(p *Proc) { q.GetPoll(p, Second, Second, func() bool { return true }) })
	e.RunUntil(10 * Second)
	allocs := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + Second) })
	if allocs != 0 {
		t.Fatalf("%v allocations per re-armed deadline, want 0", allocs)
	}
	if n := q.getters.len(); n != 1 {
		t.Fatalf("%d getter entries, want 1", n)
	}
}

// A non-positive deadline polls: GetTimeout must return an available item
// or fail immediately, never park the caller or schedule a timer. Callers
// routinely pass deadline-Now(), which goes to zero or below.
func TestQueueGetTimeoutNonPositivePolls(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	q.TryPut(11)
	var results []struct {
		v  int
		ok bool
	}
	e.Go("poller", func(p *Proc) {
		for _, d := range []Time{0, -Second, 0} {
			v, ok := q.GetTimeout(p, d)
			results = append(results, struct {
				v  int
				ok bool
			}{v, ok})
		}
	})
	e.Run()
	if len(results) != 3 {
		t.Fatalf("poller ran %d polls, want 3", len(results))
	}
	if !results[0].ok || results[0].v != 11 {
		t.Fatalf("poll with item buffered: %+v", results[0])
	}
	if results[1].ok || results[2].ok {
		t.Fatalf("polls on empty queue succeeded: %+v", results[1:])
	}
	if e.Now() != 0 {
		t.Fatalf("polling advanced time to %v", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("polling left %d timer events scheduled", e.Pending())
	}
}

func TestQueueRemoveWhere(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 4)
	for _, v := range []int{1, 2, 3, 4} {
		q.TryPut(v)
	}
	var putOK bool
	e.Go("blocked-putter", func(p *Proc) { putOK = q.Put(p, 9) })
	e.Go("remover", func(p *Proc) {
		p.Sleep(Second)
		if n := q.RemoveWhere(func(v int) bool { return v%2 == 0 }); n != 2 {
			t.Errorf("removed %d, want 2", n)
		}
		if n := q.RemoveWhere(func(int) bool { return false }); n != 0 {
			t.Errorf("no-op removal reported %d", n)
		}
	})
	e.Run()
	if !putOK {
		t.Fatal("freed capacity did not admit the blocked putter")
	}
	// Order of survivors preserved, admitted put appended after them.
	var got []int
	for {
		v, ok := q.TryGet()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int{1, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek empty should fail")
	}
	q.TryPut(7)
	v, ok := q.Peek()
	if !ok || v != 7 || q.Len() != 1 {
		t.Fatalf("peek = %d,%v len=%d", v, ok, q.Len())
	}
}

// Property: with arbitrary producer/consumer timing, a bounded queue
// neither loses nor duplicates nor reorders items.
func TestQueueConservationProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8, nRaw uint8) bool {
		capacity := int(capRaw%5) + 1
		n := int(nRaw%64) + 1
		e := NewEngine(seed)
		q := NewQueue[int](e, capacity)
		var got []int
		e.Go("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(e.Rand().Uniform(0, 3*Second))
				q.Put(p, i)
			}
			q.Close()
		})
		e.Go("consumer", func(p *Proc) {
			for {
				p.Sleep(e.Rand().Uniform(0, 3*Second))
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		e.Run()
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiple producers and consumers still conserve items
// (as a multiset) on an unbounded queue.
func TestQueueMultiProducerConsumerProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		e := NewEngine(seed)
		q := NewQueue[int](e, 0)
		seen := make(map[int]int)
		for w := 0; w < 3; w++ {
			w := w
			e.Go("producer", func(p *Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(e.Rand().Uniform(0, Second))
					q.Put(p, w*1000+i)
				}
			})
		}
		total := 3 * n
		consumed := 0
		for c := 0; c < 2; c++ {
			e.Go("consumer", func(p *Proc) {
				for consumed < total {
					v, ok := q.GetTimeout(p, 30*Second)
					if !ok {
						return
					}
					seen[v]++
					consumed++
				}
			})
		}
		e.Run()
		if consumed != total {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
