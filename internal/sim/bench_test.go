package sim

import (
	"strconv"
	"testing"
)

// switchCounter is a counting Tracer for the kernel benches. Every event
// that is not a plain callback resumes exactly one process (its start or
// a wake; these benches arm no timeouts), so it counts process switches
// as well as events.
type switchCounter struct{ events, switches int }

// Event implements Tracer.
func (c *switchCounter) Event(_ Time, what string) {
	c.events++
	if what != "callback" {
		c.switches++
	}
}

// countSwitches installs a switchCounter on e.
func countSwitches(e *Engine) *switchCounter {
	c := &switchCounter{}
	e.SetTracer(c)
	return c
}

// report emits the per-op kernel counts under the names the run reports
// share: events/op and switches/op.
func (c *switchCounter) report(b *testing.B) {
	b.ReportMetric(float64(c.events)/float64(b.N), "events/op")
	b.ReportMetric(float64(c.switches)/float64(b.N), "switches/op")
}

// BenchmarkEventThroughput measures raw scheduler throughput: how many
// events the kernel executes per second of wall time.
func BenchmarkEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Second, tick)
		}
	}
	e.After(Second, tick)
	b.ResetTimer()
	e.Run()
	if n != b.N {
		b.Fatalf("executed %d, want %d", n, b.N)
	}
}

// startHold arms n self-re-arming timers on e: the hold model of a
// timer-heavy run such as a subscriber fleet. Each timer, when it fires,
// re-arms itself a uniform 0–4 s later, so n events stay pending.
func startHold(e *Engine, n int) {
	for i := 0; i < n; i++ {
		var fire func()
		fire = func() { e.At(e.Now()+e.Rand().Uniform(0, 4*Second), fire) }
		e.At(e.Rand().Uniform(0, 4*Second), fire)
	}
}

// BenchmarkEventHold measures the event queue alone under the hold
// model, at a pipeline-sized and at a fleet-sized pending set. One op is
// one event: pop the earliest timer and re-arm it.
func BenchmarkEventHold(b *testing.B) {
	for _, n := range []int{30, 2000} {
		b.Run("pending="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine(1)
			startHold(e, n)
			for i := 0; i < 50*n; i++ {
				e.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// BenchmarkProcContextSwitch measures the park/unpark handshake cost of
// the coroutine process scheduler: one Sleep is one event and one switch
// into the process and back.
func BenchmarkProcContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	c := countSwitches(e)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Second)
		}
	})
	b.ResetTimer()
	e.Run()
	c.report(b)
}

// BenchmarkProcSpawn measures a process's whole life, from Go through its
// start event to its return. Creating a coroutine costs more than a
// switch, and a fan-out run spawns thousands of processes per scenario.
func BenchmarkProcSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	c := countSwitches(e)
	fn := func(*Proc) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Go("spawn", fn)
		e.Run()
	}
	c.report(b)
}

// BenchmarkQueueHandoff measures producer/consumer handoff through a
// bounded queue.
func BenchmarkQueueHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	c := countSwitches(e)
	q := NewQueue[int](e, 4)
	e.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	e.Run()
	c.report(b)
}

// BenchmarkResourceAcquireRelease measures semaphore churn under
// contention.
func BenchmarkResourceAcquireRelease(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	c := countSwitches(e)
	r := NewResource(e, 2)
	for w := 0; w < 4; w++ {
		e.Go("worker", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Acquire(p, 1)
				p.Sleep(Millisecond)
				r.Release(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	c.report(b)
}
