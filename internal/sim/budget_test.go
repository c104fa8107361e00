package sim

import "testing"

// Allocation budgets for the kernel's hot paths. Each case runs one
// primitive in a steady state and pins the exact number of heap
// allocations per cycle: a new allocation fails the test, and so does a
// saving that is not recorded here. A nonzero budget names what
// allocates; a zero budget says why nothing does. The engine's own event
// loop, SleepWhile ticks and GetPoll re-arms are pinned at zero in
// engine_test.go and queue_test.go.

// allocBudget is one pinned steady-state path: setup builds it and
// returns the cycle to measure.
type allocBudget struct {
	name  string
	want  float64
	why   string
	setup func() func()
}

func (b allocBudget) check(t *testing.T) {
	t.Helper()
	cycle := b.setup()
	for i := 0; i < 50; i++ {
		cycle() // reach the steady state: freelists filled, slices grown
	}
	if got := testing.AllocsPerRun(100, cycle); got != b.want {
		t.Errorf("%v allocations per cycle, budget %v (%s)", got, b.want, b.why)
	}
}

func TestQueueAllocBudget(t *testing.T) {
	for _, b := range []allocBudget{
		{"TryPut/TryGet", 0, "items is a head-indexed FIFO that rewinds when it empties",
			func() func() {
				q := NewQueue[int](NewEngine(1), 0)
				return func() {
					q.TryPut(1)
					q.TryGet()
				}
			}},
		{"Put blocks on a full queue/Get", 0, "items and putters are head-indexed FIFOs, and the put entry is recycled",
			func() func() {
				e := NewEngine(1)
				q := NewQueue[int](e, 1)
				e.Go("producer", func(p *Proc) {
					for q.Put(p, 1) {
					}
				})
				e.Go("consumer", func(p *Proc) {
					for {
						q.Get(p)
						p.Sleep(Second)
					}
				})
				return func() { e.RunUntil(e.Now() + Second) }
			}},
		{"Get parks on an empty queue/Put", 0, "items and getters are head-indexed FIFOs, and the wait is the proc's own",
			func() func() {
				e := NewEngine(1)
				q := NewQueue[int](e, 0)
				e.Go("consumer", func(p *Proc) {
					for {
						q.Get(p)
					}
				})
				e.Go("producer", func(p *Proc) {
					for {
						p.Sleep(Second)
						q.Put(p, 1)
					}
				})
				return func() { e.RunUntil(e.Now() + Second) }
			}},
	} {
		t.Run(b.name, b.check)
	}
}

func TestEventAllocBudget(t *testing.T) {
	for _, b := range []allocBudget{
		{"Wait/Fire", 2, "an Event is one-shot: the event and its waiter list are made per use",
			func() func() {
				e := NewEngine(1)
				var cur *Event
				e.Go("waiter", func(p *Proc) {
					for {
						cur = NewEvent(e)
						cur.Wait(p)
					}
				})
				e.Go("firer", func(p *Proc) {
					for {
						p.Sleep(Second)
						cur.Fire()
					}
				})
				return func() { e.RunUntil(e.Now() + Second) }
			}},
		{"WaitTimeout/Fire", 3, "the one-shot event, its waiter list, and the timeout closure bound to this wait",
			func() func() {
				e := NewEngine(1)
				var cur *Event
				e.Go("waiter", func(p *Proc) {
					for {
						cur = NewEvent(e)
						cur.WaitTimeout(p, Minute)
					}
				})
				e.Go("firer", func(p *Proc) {
					for {
						p.Sleep(Second)
						cur.Fire()
					}
				})
				return func() { e.RunUntil(e.Now() + Second) }
			}},
	} {
		t.Run(b.name, b.check)
	}
}

func TestResourceAllocBudget(t *testing.T) {
	for _, b := range []allocBudget{
		{"Acquire/Release contended", 0, "waiters is a head-indexed FIFO, and the wait is the proc's own",
			func() func() {
				e := NewEngine(1)
				r := NewResource(e, 1)
				for _, name := range []string{"a", "b"} {
					e.Go(name, func(p *Proc) {
						for {
							r.Acquire(p, 1)
							p.Sleep(Second)
							r.Release(1)
						}
					})
				}
				return func() { e.RunUntil(e.Now() + Second) }
			}},
		{"AcquireThen/Release contended", 0, "waiters is a head-indexed FIFO, and the continuation is built once",
			func() func() {
				e := NewEngine(1)
				r := NewResource(e, 1)
				var release func()
				hold := func() { e.After(Second, release) }
				release = func() {
					r.Release(1)
					if r.AcquireThen(1, hold) {
						hold()
					}
				}
				for i := 0; i < 2; i++ {
					if r.AcquireThen(1, hold) {
						hold()
					}
				}
				return func() { e.RunUntil(e.Now() + Second) }
			}},
	} {
		t.Run(b.name, b.check)
	}
}
