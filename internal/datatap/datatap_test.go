package datatap

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
)

func newTestChannel(queueCap int, bufBytes int64) (*sim.Engine, *cluster.Machine, *Channel) {
	eng := sim.NewEngine(11)
	cfg := cluster.Franklin()
	cfg.Nodes = 8
	mach := cluster.New(eng, cfg)
	ch := NewChannel(eng, mach, "test", Config{
		QueueCap:       queueCap,
		WriterBufBytes: bufBytes,
		HomeNode:       1,
	})
	return eng, mach, ch
}

func TestWriteFetchRoundTrip(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	var got []int64
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 5; i++ {
			if !w.Write(p, i, 1<<20, i) {
				t.Error("write failed")
			}
		}
		ch.Close()
	})
	eng.Go("reader", func(p *sim.Proc) {
		for {
			m, ok := r.Fetch(p)
			if !ok {
				return
			}
			if m.Data.(int64) != m.Step {
				t.Errorf("data mismatch at step %d", m.Step)
			}
			got = append(got, m.Step)
		}
	})
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("fetched %d", len(got))
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("order %v", got)
		}
	}
	st := ch.Stats()
	if st.StepsWritten != 5 || st.StepsPulled != 5 || st.BytesPulled != 5<<20 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteIsAsyncUntilBufferFills(t *testing.T) {
	eng, _, ch := newTestChannel(0, 4<<20)
	w := ch.NewWriter(0)
	var stamps []sim.Time
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			w.Write(p, i, 1<<20, nil)
			stamps = append(stamps, p.Now())
		}
	})
	eng.Run()
	// All four fit in the buffer: writes complete quickly (just copy +
	// descriptor push), each well under a millisecond of virtual time.
	for i, s := range stamps {
		if s > 10*sim.Millisecond {
			t.Fatalf("write %d finished at %v; should be async", i, s)
		}
	}
	if w.buf.InUse() != 4<<20 {
		t.Fatalf("buffered %d", w.buf.InUse())
	}
}

func TestFullBufferBlocksWriter(t *testing.T) {
	eng, _, ch := newTestChannel(0, 2<<20)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	var thirdDone sim.Time
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 3; i++ {
			w.Write(p, i, 1<<20, nil)
		}
		thirdDone = p.Now()
	})
	eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(30 * sim.Second)
		r.Fetch(p)
	})
	eng.Run()
	if thirdDone < 30*sim.Second {
		t.Fatalf("third write finished at %v; buffer should block until the pull", thirdDone)
	}
	if ch.Stats().WriterBlocked == 0 {
		t.Fatal("blocked time not accounted")
	}
}

func TestFullQueueBlocksWriter(t *testing.T) {
	eng, _, ch := newTestChannel(2, 0)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	var lastWrite sim.Time
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 3; i++ {
			w.Write(p, i, 1<<10, nil)
		}
		lastWrite = p.Now()
	})
	eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(60 * sim.Second)
		r.Fetch(p)
	})
	eng.Run()
	if lastWrite < 60*sim.Second {
		t.Fatalf("queue overflow should have blocked the writer; finished %v", lastWrite)
	}
}

func TestPauseWaitsForInflightWrite(t *testing.T) {
	eng, _, ch := newTestChannel(0, 1<<20)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	// Fill the buffer so the next write blocks mid-flight.
	var pauseDone sim.Time
	var pauseWait sim.Time
	eng.Go("writer", func(p *sim.Proc) {
		w.Write(p, 0, 1<<20, nil) // fills buffer
		w.Write(p, 1, 1<<20, nil) // blocks inside Acquire (busy=true)
	})
	eng.Go("manager", func(p *sim.Proc) {
		p.Sleep(sim.Second) // let write 1 start and block
		pauseWait = ch.Pause(p)
		pauseDone = p.Now()
	})
	eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(10 * sim.Second)
		r.Fetch(p) // frees buffer; write 1 completes; pause finishes
	})
	eng.Run()
	if pauseDone < 10*sim.Second {
		t.Fatalf("pause completed at %v, before the in-flight write could finish", pauseDone)
	}
	if pauseWait < 9*sim.Second {
		t.Fatalf("pause wait %v should reflect the in-flight write", pauseWait)
	}
	if ch.Stats().PauseWait != pauseWait {
		t.Fatal("pause wait not accounted in stats")
	}
}

func TestPausedWriterWaitsForResume(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	var wroteAt sim.Time
	eng.Go("manager", func(p *sim.Proc) {
		ch.Pause(p)
		if !ch.paused {
			t.Error("channel should be paused")
		}
	})
	eng.Go("writer", func(p *sim.Proc) {
		p.Sleep(sim.Second) // pause happens first
		w.Write(p, 0, 1<<10, nil)
		wroteAt = p.Now()
	})
	eng.At(20*sim.Second, ch.Resume)
	eng.Run()
	if wroteAt < 20*sim.Second {
		t.Fatalf("write completed at %v while paused", wroteAt)
	}
	if ch.paused {
		t.Fatal("channel should be resumed")
	}
}

func TestResumeWithoutPauseIsNoop(t *testing.T) {
	_, _, ch := newTestChannel(0, 0)
	ch.Resume() // must not panic
	if ch.paused {
		t.Fatal("not paused")
	}
}

func TestCloseUnblocksReaders(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	r := ch.NewReader(1)
	sawClose := false
	eng.Go("reader", func(p *sim.Proc) {
		_, ok := r.Fetch(p)
		sawClose = !ok
	})
	eng.At(sim.Second, ch.Close)
	eng.Run()
	if !sawClose {
		t.Fatal("reader not released by close")
	}
	if !ch.Closed() {
		t.Fatal("Closed() false")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	ch.Close()
	ok := true
	eng.Go("writer", func(p *sim.Proc) { ok = w.Write(p, 0, 1, nil) })
	eng.Run()
	if ok {
		t.Fatal("write after close should fail")
	}
}

func TestFetchTimeout(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	r := ch.NewReader(1)
	var timedOut bool
	eng.Go("reader", func(p *sim.Proc) {
		_, ok := r.FetchPoll(p, 2*sim.Second, nil)
		timedOut = !ok
	})
	eng.Run()
	if !timedOut {
		t.Fatal("expected timeout")
	}
}

// A retry after an invalidated descriptor keeps to the deadline in force:
// once FetchPoll has re-armed, that is the re-armed deadline, not the
// first. The reader's first deadline (10 s) re-arms to 20 s. The step
// written at 15 s waits for the pull spacing until 16 s, by when its
// writer's node is dead, so the pull fails; the retry must wait out the
// re-armed deadline before the fetch gives up.
func TestFetchPollRetryKeepsRearmedDeadline(t *testing.T) {
	eng := sim.NewEngine(11)
	ccfg := cluster.Franklin()
	ccfg.Nodes = 8
	mach := cluster.New(eng, ccfg)
	ch := NewChannel(eng, mach, "rearm", Config{HomeNode: 1, PullTokens: 1, PullSpacing: 16 * sim.Second})
	sched, err := fault.NewSchedule(eng, fault.Config{
		Crashes: []fault.Crash{{Node: 0, At: 15*sim.Second + sim.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mach.SetFaults(sched)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	eng.Go("writer", func(p *sim.Proc) {
		p.Sleep(15 * sim.Second)
		w.Write(p, 0, 1<<20, nil)
	})
	var ok bool
	var gaveUp sim.Time
	eng.Go("reader", func(p *sim.Proc) {
		keep := func() bool { return p.Now() < 15*sim.Second }
		_, ok = r.FetchPoll(p, 10*sim.Second, keep)
		gaveUp = p.Now()
	})
	eng.Run()
	if ok {
		t.Fatal("the fetch succeeded; the step's writer node was dead")
	}
	if st := ch.Stats(); st.Invalidated != 1 {
		t.Fatalf("%d descriptors invalidated, want 1", st.Invalidated)
	}
	if gaveUp != 20*sim.Second {
		t.Fatalf("fetch gave up at %v, want the re-armed deadline 20s", gaveUp)
	}
}

func TestMultiReaderSharding(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	counts := make([]int, 2)
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 10; i++ {
			w.Write(p, i, 1<<16, nil)
			p.Sleep(sim.Second)
		}
		ch.Close()
	})
	for ri := 0; ri < 2; ri++ {
		ri := ri
		r := ch.NewReader(1 + ri)
		eng.Go("reader", func(p *sim.Proc) {
			for {
				_, ok := r.Fetch(p)
				if !ok {
					return
				}
				counts[ri]++
				p.Sleep(500 * sim.Millisecond)
			}
		})
	}
	eng.Run()
	if counts[0]+counts[1] != 10 {
		t.Fatalf("counts %v", counts)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("work not shared: %v", counts)
	}
}

func TestQueueDepthTracking(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			w.Write(p, i, 1<<10, nil)
		}
	})
	eng.Run()
	if ch.QueueLen() != 4 || ch.Stats().MaxQueue != 4 {
		t.Fatalf("queue %d max %d", ch.QueueLen(), ch.Stats().MaxQueue)
	}
	if ch.String() == "" {
		t.Fatal("String empty")
	}
}

// Property: for arbitrary producer/consumer pacing and buffer bounds, no
// timestep is lost or duplicated and pulls arrive in step order.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, qCapRaw, bufRaw, nRaw uint8) bool {
		n := int64(nRaw%20) + 1
		qCap := int(qCapRaw % 4) // 0..3 (0 = unbounded)
		bufMB := int64(bufRaw%3) + 1
		eng := sim.NewEngine(seed)
		cfg := cluster.Franklin()
		cfg.Nodes = 4
		mach := cluster.New(eng, cfg)
		ch := NewChannel(eng, mach, "prop", Config{
			QueueCap:       qCap,
			WriterBufBytes: bufMB << 20,
			HomeNode:       1,
		})
		w := ch.NewWriter(0)
		r := ch.NewReader(1)
		var got []int64
		eng.Go("writer", func(p *sim.Proc) {
			for i := int64(0); i < n; i++ {
				p.Sleep(eng.Rand().Uniform(0, 2*sim.Second))
				if !w.Write(p, i, 1<<20, nil) {
					return
				}
			}
			ch.Close()
		})
		eng.Go("reader", func(p *sim.Proc) {
			for {
				p.Sleep(eng.Rand().Uniform(0, 2*sim.Second))
				m, ok := r.Fetch(p)
				if !ok {
					return
				}
				got = append(got, m.Step)
			}
		})
		eng.Run()
		if int64(len(got)) != n {
			return false
		}
		for i, s := range got {
			if s != int64(i) {
				return false
			}
		}
		// All buffer space returned.
		return w.buf.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: pause/resume cycles never lose steps.
func TestPauseResumeConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int64(nRaw%15) + 5
		eng := sim.NewEngine(seed)
		ch := NewChannel(eng, nil, "pp", Config{})
		w := ch.NewWriter(0)
		r := ch.NewReader(1)
		var pulled int64
		eng.Go("writer", func(p *sim.Proc) {
			for i := int64(0); i < n; i++ {
				p.Sleep(sim.Second)
				w.Write(p, i, 1<<10, nil)
			}
			ch.Close()
		})
		eng.Go("manager", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(eng.Rand().Uniform(sim.Second, 5*sim.Second))
				ch.Pause(p)
				p.Sleep(eng.Rand().Uniform(0, 3*sim.Second))
				ch.Resume()
			}
		})
		eng.Go("reader", func(p *sim.Proc) {
			for {
				_, ok := r.Fetch(p)
				if !ok {
					return
				}
				pulled++
			}
		})
		eng.Run()
		return pulled == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: under a random fault schedule — link degradation, transient
// partitions, drop windows, a bystander crash, everything except
// permanent writer death — every step the writer successfully published
// is accounted exactly once: pulled by the reader or invalidated by a
// fault, never lost silently and never duplicated.
func TestFaultScheduleConservationProperty(t *testing.T) {
	f := func(seed int64, faultRaw, nRaw, winRaw uint8) bool {
		n := int64(nRaw%25) + 5
		eng := sim.NewEngine(seed)
		ccfg := cluster.Franklin()
		ccfg.Nodes = 4
		mach := cluster.New(eng, ccfg)
		// Build a random fault plan. Node 0 (the writer) never crashes;
		// partition windows are transient and end before the horizon.
		fcfg := fault.Config{Seed: seed}
		winStart := sim.Time(winRaw%40) * sim.Second
		winEnd := winStart + sim.Time(faultRaw%20+2)*sim.Second
		if faultRaw&1 != 0 {
			fcfg.Links = append(fcfg.Links, fault.LinkFault{
				From: winStart, Until: winEnd,
				LatencyFactor: float64(faultRaw%7) + 1, SlowdownFactor: 2,
			})
		}
		if faultRaw&2 != 0 {
			fcfg.Partitions = append(fcfg.Partitions, fault.Partition{
				From: winStart, Until: winEnd, Nodes: []int{1},
			})
		}
		if faultRaw&4 != 0 {
			fcfg.Drops = append(fcfg.Drops, fault.DropWindow{
				From: winStart, Until: winEnd, Prob: 0.5,
			})
		}
		if faultRaw&8 != 0 {
			fcfg.Crashes = append(fcfg.Crashes, fault.Crash{Node: 3, At: winStart})
		}
		sched, err := fault.NewSchedule(eng, fcfg)
		if err != nil {
			return false
		}
		mach.SetFaults(sched)
		ch := NewChannel(eng, mach, "faultprop", Config{
			QueueCap:       int(faultRaw % 5),
			WriterBufBytes: 8 << 20,
			HomeNode:       1,
		})
		w := ch.NewWriter(0)
		r := ch.NewReader(1)
		seen := map[int64]bool{}
		dup := false
		eng.Go("writer", func(p *sim.Proc) {
			for i := int64(0); i < n; i++ {
				p.Sleep(eng.Rand().Uniform(0, 2*sim.Second))
				w.Write(p, i, 1<<20, nil)
			}
			ch.Close()
		})
		eng.Go("reader", func(p *sim.Proc) {
			for {
				p.Sleep(eng.Rand().Uniform(0, 2*sim.Second))
				m, ok := r.Fetch(p)
				if !ok {
					return
				}
				if seen[m.Step] {
					dup = true
				}
				seen[m.Step] = true
			}
		})
		eng.Run()
		if dup {
			return false
		}
		st := ch.Stats()
		// Conservation: published == pulled + invalidated (the reader
		// drained the closed queue, so nothing is left parked).
		if st.StepsPulled+st.Invalidated != st.StepsWritten {
			return false
		}
		if int64(len(seen)) != st.StepsPulled {
			return false
		}
		// Every buffer reservation was returned, pulled or invalidated.
		return w.buf.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadAge(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	if ch.HeadAge(5*sim.Second) != 0 {
		t.Fatal("empty queue should have zero head age")
	}
	w := ch.NewWriter(0)
	eng.Go("writer", func(p *sim.Proc) {
		w.Write(p, 0, 1<<10, nil)
	})
	eng.Run()
	created := eng.Now()
	if got := ch.HeadAge(created + 7*sim.Second); got < 7*sim.Second {
		t.Fatalf("head age %v, want >= 7s", got)
	}
}

func TestRequeuePreservesStep(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	var first, second int64 = -1, -1
	eng.Go("writer", func(p *sim.Proc) {
		w.Write(p, 42, 1<<20, "payload")
	})
	eng.Go("reader", func(p *sim.Proc) {
		m, ok := r.Fetch(p)
		if !ok {
			t.Error("fetch failed")
			return
		}
		first = m.Step
		if !ch.Requeue(m) {
			t.Error("requeue failed")
			return
		}
		m2, ok := r.Fetch(p)
		if !ok {
			t.Error("refetch failed")
			return
		}
		second = m2.Step
		if m2.Data != "payload" {
			t.Error("payload lost across requeue")
		}
	})
	eng.Run()
	if first != 42 || second != 42 {
		t.Fatalf("steps %d %d", first, second)
	}
	// Pull accounting nets out to one effective pull.
	if ch.Stats().StepsPulled != 1 {
		t.Fatalf("pulled %d, want 1 net", ch.Stats().StepsPulled)
	}
}

// TestRequeueDuringPausePinsQueueStats is the regression for the
// Pause/Requeue interaction: a requeue landing inside a pause window is
// a queue insertion, so it must decrement the pull ledger, count as a
// paused requeue, and participate in the MaxQueue high-water — the bug
// was a stale MaxQueue (and a silent overflow trigger) when every
// insertion during the pause came from Requeue rather than Write.
func TestRequeueDuringPausePinsQueueStats(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	eng.Go("driver", func(p *sim.Proc) {
		// Write/fetch strictly alternated: the queue never holds more
		// than one descriptor, so the Write-side high-water is 1.
		var held []*Meta
		for i := int64(0); i < 3; i++ {
			if !w.Write(p, i, 1<<20, nil) {
				t.Error("write failed")
				return
			}
			m, ok := r.Fetch(p)
			if !ok {
				t.Error("fetch failed")
				return
			}
			held = append(held, m)
		}
		st := ch.Stats()
		if st.StepsPulled != 3 || st.BytesPulled != 3<<20 {
			t.Errorf("pre-pause ledger: pulled=%d bytes=%d", st.StepsPulled, st.BytesPulled)
		}
		if st.MaxQueue != 1 {
			t.Errorf("pre-pause MaxQueue=%d, want 1", st.MaxQueue)
		}

		ch.Pause(p)
		for _, m := range held {
			if !ch.Requeue(m) {
				t.Error("requeue failed mid-pause")
				return
			}
		}
		st = ch.Stats()
		if st.Requeued != 3 || st.RequeuedPaused != 3 {
			t.Errorf("mid-pause requeued=%d paused=%d, want 3/3", st.Requeued, st.RequeuedPaused)
		}
		if st.StepsPulled != 0 || st.BytesPulled != 0 {
			t.Errorf("mid-pause ledger not unwound: pulled=%d bytes=%d", st.StepsPulled, st.BytesPulled)
		}
		// The three requeues alone must raise the high-water past the
		// Write-side peak of 1.
		if st.MaxQueue != 3 {
			t.Errorf("mid-pause MaxQueue=%d, want 3", st.MaxQueue)
		}

		ch.Resume()
		for i := int64(0); i < 3; i++ {
			m, ok := r.Fetch(p)
			if !ok {
				t.Error("refetch failed")
				return
			}
			if m.Step != i {
				t.Errorf("refetch order: got step %d, want %d", m.Step, i)
			}
		}
		st = ch.Stats()
		if st.StepsPulled != 3 || st.BytesPulled != 3<<20 {
			t.Errorf("post-resume ledger: pulled=%d bytes=%d", st.StepsPulled, st.BytesPulled)
		}
		if st.Requeued != 3 || st.RequeuedPaused != 3 {
			t.Errorf("post-resume requeued=%d paused=%d changed", st.Requeued, st.RequeuedPaused)
		}
	})
	eng.Run()
}

func TestRequeueAfterCloseFails(t *testing.T) {
	eng, _, ch := newTestChannel(0, 0)
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	eng.Go("x", func(p *sim.Proc) {
		w.Write(p, 0, 1<<10, nil)
		m, _ := r.Fetch(p)
		ch.Close()
		if ch.Requeue(m) {
			t.Error("requeue into closed channel should fail")
		}
	})
	eng.Run()
}

func TestPullTokensSerializePulls(t *testing.T) {
	eng := sim.NewEngine(11)
	cfg := cluster.Franklin()
	cfg.Nodes = 8
	mach := cluster.New(eng, cfg)
	ch := NewChannel(eng, mach, "sched", Config{HomeNode: 1, PullTokens: 1})
	w := ch.NewWriter(0)
	// Stage 4 payloads up front, then let 4 readers race.
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			w.Write(p, i, 64<<20, nil)
		}
	})
	var finishes []sim.Time
	for r := 0; r < 4; r++ {
		rd := ch.NewReader(1 + r)
		eng.Go("reader", func(p *sim.Proc) {
			if _, ok := rd.FetchPoll(p, sim.Minute, nil); ok {
				finishes = append(finishes, p.Now())
			}
		})
	}
	eng.Run()
	if len(finishes) != 4 {
		t.Fatalf("finished %d pulls", len(finishes))
	}
	// With one token, pulls end strictly one transfer apart.
	minGap := sim.Time(1 << 62)
	for i := 1; i < len(finishes); i++ {
		if gap := finishes[i] - finishes[i-1]; gap < minGap {
			minGap = gap
		}
	}
	xfer := 2 * sim.Time(float64(64<<20)/(1600*1024*1024)*float64(sim.Second))
	if minGap < xfer/2 {
		t.Fatalf("pulls overlapped: min gap %v vs transfer %v", minGap, xfer)
	}
}

func TestPullSpacingEnforcesGap(t *testing.T) {
	eng := sim.NewEngine(11)
	ch := NewChannel(eng, nil, "spaced", Config{PullTokens: 1, PullSpacing: 5 * sim.Second})
	w := ch.NewWriter(0)
	r := ch.NewReader(1)
	var starts []sim.Time
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 3; i++ {
			w.Write(p, i, 1<<10, nil)
		}
		ch.Close()
	})
	eng.Go("reader", func(p *sim.Proc) {
		for {
			if _, ok := r.Fetch(p); !ok {
				return
			}
			starts = append(starts, p.Now())
		}
	})
	eng.Run()
	if len(starts) != 3 {
		t.Fatalf("pulled %d", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if starts[i]-starts[i-1] < 5*sim.Second {
			t.Fatalf("spacing violated: %v", starts)
		}
	}
}
