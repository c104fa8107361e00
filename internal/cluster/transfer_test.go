package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// xferJob is one message of an equivalence run.
type xferJob struct {
	at       sim.Time
	from, to int
	size     int64
}

// xferOutcome is what one run observed for each job, plus the run's
// totals.
type xferOutcome struct {
	ok   []bool
	end  []sim.Time
	net  NetStats
	flt  fault.Stats
	evs  int64
	last sim.Time
}

// runXfers sends every job on a fresh 6-node machine under faults, either
// with the blocking Send (one process per job) or with event-driven
// Transfers (one per job), and records each job's outcome.
func runXfers(t *testing.T, jobs []xferJob, faults fault.Config, blocking bool) xferOutcome {
	t.Helper()
	eng := sim.NewEngine(3)
	cfg := Franklin()
	cfg.Nodes = 6
	m := New(eng, cfg)
	s, err := fault.NewSchedule(eng, faults)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(s)
	out := xferOutcome{ok: make([]bool, len(jobs)), end: make([]sim.Time, len(jobs))}
	for i, j := range jobs {
		i, j := i, j
		record := func(ok bool) { out.ok[i], out.end[i] = ok, eng.Now() }
		if blocking {
			eng.GoAt(j.at, fmt.Sprint("send-", i), func(p *sim.Proc) {
				record(m.Send(p, j.from, j.to, j.size))
			})
			continue
		}
		tr := m.NewTransfer(record)
		eng.At(j.at, func() {
			if !tr.Start(j.from, j.to, j.size) {
				record(false)
			}
		})
	}
	eng.Run()
	out.net, out.flt = m.Stats(), s.Stats()
	out.evs, out.last = eng.Stats().Events, eng.Now()
	return out
}

// randomJobs draws n messages between nodes 0..5 (intra-node ones
// included) starting within 20ms, sized up to 4 MiB.
func randomJobs(r *rand.Rand, n int) []xferJob {
	jobs := make([]xferJob, n)
	for i := range jobs {
		jobs[i] = xferJob{
			at:   sim.Time(r.Int63n(int64(20 * sim.Millisecond))),
			from: r.Intn(6),
			to:   r.Intn(6),
			size: r.Int63n(4 << 20),
		}
	}
	return jobs
}

// The event-driven Transfer and the blocking Send are the same model:
// side by side on the same jobs and faults, both report the same
// delivery, at the same instant, with the same network and fault
// counters and the same number of engine events.
func TestTransferMatchesSend(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		name   string
		jobs   func(r *rand.Rand) []xferJob
		faults fault.Config
	}{
		{"random", func(r *rand.Rand) []xferJob { return randomJobs(r, 40) }, fault.Config{}},
		{"shared-nic", func(r *rand.Rand) []xferJob {
			var jobs []xferJob
			for i := 0; i < 12; i++ {
				jobs = append(jobs, xferJob{at: sim.Time(i%3) * ms, from: 0, to: 1 + i%3, size: 1 << 20})
				jobs = append(jobs, xferJob{at: sim.Time(i%2) * ms, from: 1 + i%4, to: 5, size: 1 << 19})
			}
			return jobs
		}, fault.Config{}},
		{"degraded-links", func(r *rand.Rand) []xferJob { return randomJobs(r, 40) }, fault.Config{
			Links: []fault.LinkFault{{From: 5 * ms, Until: 12 * ms, LatencyFactor: 40, SlowdownFactor: 3}},
		}},
		{"receiver-crash", func(r *rand.Rand) []xferJob {
			jobs := randomJobs(r, 30)
			for i := 0; i < 6; i++ {
				jobs = append(jobs, xferJob{at: sim.Time(i) * ms, from: i % 2, to: 2, size: 2 << 20})
			}
			return jobs
		}, fault.Config{Crashes: []fault.Crash{{Node: 2, At: 4*ms + 300*sim.Microsecond}}}},
		{"partition", func(r *rand.Rand) []xferJob { return randomJobs(r, 40) }, fault.Config{
			Partitions: []fault.Partition{{From: 3 * ms, Until: 11 * ms, Nodes: []int{3, 4}}},
		}},
		{"dead-sender", func(r *rand.Rand) []xferJob {
			return append(randomJobs(r, 30), xferJob{at: 0, from: 1, to: 4, size: 1 << 20},
				xferJob{at: 15 * ms, from: 1, to: 1, size: 1 << 10})
		}, fault.Config{Crashes: []fault.Crash{{Node: 1, At: 0}, {Node: 5, At: 9 * ms}}}},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 16; seed++ {
			jobs := c.jobs(rand.New(rand.NewSource(seed)))
			want := runXfers(t, jobs, c.faults, true)
			got := runXfers(t, jobs, c.faults, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: Transfer diverges from Send\n got %+v\nwant %+v", c.name, seed, got, want)
			}
		}
	}
}

// A transfer carries one message at a time and is reusable afterwards.
func TestTransferReuseAndBusyPanics(t *testing.T) {
	eng, m := testMachine(4)
	n := 0
	var tr *Transfer
	tr = m.NewTransfer(func(ok bool) {
		if !ok {
			t.Error("fault-free transfer lost")
		}
		if n++; n < 3 {
			tr.Start(0, 1, 1<<20)
		}
	})
	tr.Start(0, 1, 1<<20)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("starting a transfer in flight did not panic")
			}
		}()
		tr.Start(0, 2, 1)
	}()
	eng.Run()
	if n != 3 || m.Stats().Messages != 3 {
		t.Fatalf("%d completions, %d messages; want 3 of each", n, m.Stats().Messages)
	}
}
