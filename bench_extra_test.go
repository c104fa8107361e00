package iocontainer

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatap"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smartpointer"
)

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// bench reports the quantity under study as a custom metric so the
// comparison is visible in the -bench output.

// BenchmarkAblationManagedVsUnmanaged compares the Fig. 9 workload with
// and without the global manager's policy: the managed run lets more
// steps exit and blocks the simulation's writer less.
func BenchmarkAblationManagedVsUnmanaged(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		b.ReportAllocs()
		var exits int64
		var blocked sim.Time
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				SimNodes:     1024,
				StagingNodes: 24,
				Specs:        core.SpecsWithBondsModel(smartpointer.ModelParallel),
				Sizes:        core.DefaultSizes(24),
				Steps:        60,
				CrackStep:    -1,
				Seed:         int64(42 + i),
				Policy: core.PolicyConfig{
					DisableManagement: disable,
					OfflinePatience:   10,
				},
			}
			rt, err := core.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := rt.Run()
			if err != nil {
				b.Fatal(err)
			}
			exits += res.Exits
			blocked += res.WriterBlocked
		}
		b.ReportMetric(float64(exits)/float64(b.N), "steps-exited/op")
		b.ReportMetric(blocked.Seconds()/float64(b.N), "writer-blocked-s/op")
	}
	b.Run("managed", func(b *testing.B) { run(b, false) })
	b.Run("unmanaged", func(b *testing.B) { run(b, true) })
}

// BenchmarkResizeRRvsParallel contrasts the cost of growing a round-robin
// container (launch new replicas, exchange metadata) against growing an
// MPI-style parallel one (complete teardown and relaunch) — the §III-D
// distinction.
func BenchmarkResizeRRvsParallel(b *testing.B) {
	run := func(b *testing.B, model smartpointer.ComputeModel) {
		b.ReportAllocs()
		var overhead sim.Time // resize cost excluding the aprun launch
		for i := 0; i < b.N; i++ {
			rt, err := core.Build(core.Config{
				SimNodes:     64,
				StagingNodes: 24,
				Specs:        core.SpecsWithBondsModel(model),
				Sizes:        map[string]int{"helper": 4, "bonds": 4, "csym": 2, "cna": 1},
				Steps:        10,
				CrackStep:    -1,
				Seed:         int64(7 + i),
				Policy:       core.PolicyConfig{DisableManagement: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			var elapsed sim.Time
			rt.Engine().Go("driver", func(p *sim.Proc) {
				p.Sleep(30 * sim.Second)
				nodes := rt.TakeSpare(4)
				start := p.Now()
				resp := rt.ShardManager(0).Increase(p, "bonds", nodes)
				if resp == nil {
					b.Error("increase failed")
					return
				}
				elapsed = p.Now() - start - resp.Launch
			})
			rt.Engine().RunUntil(400 * sim.Second)
			rt.Shutdown()
			overhead += elapsed
		}
		b.ReportMetric(overhead.Milliseconds()/float64(b.N), "non-launch-virtual-ms/op")
	}
	b.Run("rr", func(b *testing.B) { run(b, smartpointer.ModelRR) })
	b.Run("parallel", func(b *testing.B) { run(b, smartpointer.ModelParallel) })
}

// BenchmarkAblationPullScheduling reproduces the §III-C contention
// argument: when a backlog of staged payloads sits on a compute node,
// unscheduled pulls hammer its NIC back-to-back and the application's own
// communication (here a halo-exchange message stream) queues behind them;
// DataStager-style scheduling (one pull in flight at a time) keeps the
// application's message latency bounded.
func BenchmarkAblationPullScheduling(b *testing.B) {
	run := func(b *testing.B, tokens int) {
		b.ReportAllocs()
		var haloTotal sim.Time
		var haloCount int
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(int64(5 + i))
			mach := NewMachine(eng, func() MachineConfig {
				c := Franklin()
				c.Nodes = 12
				return c
			}())
			ch := datatap.NewChannel(eng, mach, "bench", datatap.Config{
				HomeNode:   1,
				PullTokens: tokens,
			})
			w := ch.NewWriter(0)
			// Build a backlog of staged 256 MiB payloads on node 0.
			eng.Go("writer", func(p *sim.Proc) {
				for s := int64(0); s < 24; s++ {
					w.Write(p, s, 256<<20, nil)
				}
			})
			// Eight readers drain the backlog concurrently.
			for r := 0; r < 8; r++ {
				rd := ch.NewReader(1 + r%8)
				eng.Go("reader", func(p *sim.Proc) {
					for {
						if _, ok := rd.FetchTimeout(p, 10*sim.Second); !ok {
							return
						}
					}
				})
			}
			// The application keeps exchanging 1 MiB halo messages from
			// the same node; their latency is what contention costs it.
			eng.Go("halo", func(p *sim.Proc) {
				p.Sleep(500 * sim.Millisecond)
				for k := 0; k < 50; k++ {
					start := p.Now()
					mach.Send(p, 0, 9, 1<<20)
					haloTotal += p.Now() - start
					haloCount++
					p.Sleep(20 * sim.Millisecond)
				}
				ch.Close()
			})
			eng.Run()
		}
		b.ReportMetric(haloTotal.Milliseconds()/float64(haloCount), "halo-latency-ms")
	}
	b.Run("unscheduled", func(b *testing.B) { run(b, 0) })
	b.Run("scheduled-1", func(b *testing.B) { run(b, 1) })
}

// BenchmarkAblationTransactionalTrades measures the overhead of wrapping
// resource trades in D2T control transactions.
func BenchmarkAblationTransactionalTrades(b *testing.B) {
	run := func(b *testing.B, txn bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				SimNodes:     256,
				StagingNodes: 13,
				Sizes:        core.DefaultSizes(13),
				Steps:        20,
				CrackStep:    -1,
				Seed:         int64(42 + i),
				Policy:       core.PolicyConfig{TransactionalTrades: txn},
			}
			rt, err := core.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("transactional", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDeliveryGuarantee prices the at-least-once data
// plane against best-effort under the same hostile schedule: the writer
// node is partitioned for most of the run, so mid-run pulls fail, and a
// tiny descriptor queue keeps the channel under spill pressure. The
// best-effort leg loses the steps whose pulls failed; the at-least-once
// leg redelivers them (retention + repair loop + spill-to-disk) and the
// run fails outright if even one step goes unaccounted — the bench output
// is the cost of that guarantee, and `make bench` ratchets it.
func BenchmarkAblationDeliveryGuarantee(b *testing.B) {
	const steps = 24
	run := func(b *testing.B, alo bool) {
		b.ReportAllocs()
		var delivered, lost, redelivered, spilled int64
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(int64(9 + i))
			mc := Franklin()
			mc.Nodes = 8
			mach := NewMachine(eng, mc)
			sched, err := fault.NewSchedule(eng, fault.Config{
				Seed: int64(9 + i),
				Partitions: []fault.Partition{
					{From: 5 * sim.Second, Until: 40 * sim.Second, Nodes: []int{2}},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			mach.SetFaults(sched)
			cfg := datatap.Config{HomeNode: 1, QueueCap: 4}
			if alo {
				cfg.Delivery = datatap.DeliveryAtLeastOnce
			}
			ch := datatap.NewChannel(eng, mach, "bench", cfg)
			w := ch.NewWriter(2)
			r := ch.NewReader(1)
			eng.Go("writer", func(p *sim.Proc) {
				for s := int64(1); s <= steps; s++ {
					w.Write(p, s, 1<<20, nil)
				}
			})
			var got int64
			eng.Go("reader", func(p *sim.Proc) {
				p.Sleep(2 * sim.Second)
				for got < steps {
					m, ok := r.FetchTimeout(p, 60*sim.Second)
					if !ok {
						break
					}
					got++
					if alo {
						r.Ack(p, m)
					}
					p.Sleep(sim.Second) // spread pulls across the partition window
				}
				ch.Close()
			})
			eng.Run()
			delivered += got
			lost += steps - got
			d := ch.DeliverySnapshot()
			redelivered += d.StepsRedelivered
			spilled += d.StepsSpilled
			if alo {
				if got != steps {
					b.Fatalf("at-least-once delivered %d of %d steps", got, steps)
				}
				if n := d.Unaccounted(); n != 0 {
					b.Fatalf("at-least-once left %d steps unaccounted: %+v", n, d)
				}
			}
		}
		b.ReportMetric(float64(delivered)/float64(b.N), "steps-delivered/op")
		b.ReportMetric(float64(lost)/float64(b.N), "steps-lost/op")
		b.ReportMetric(float64(redelivered)/float64(b.N), "steps-redelivered/op")
		b.ReportMetric(float64(spilled)/float64(b.N), "steps-spilled/op")
	}
	b.Run("best-effort", func(b *testing.B) { run(b, false) })
	b.Run("at-least-once", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPlacement previews the paper's future-work question:
// container placement on a topology-aware machine. The same pipeline
// traffic pattern (simulation -> helper -> bonds -> csym) is run with the
// staging nodes adjacent to the simulation partition versus scattered
// across a 3-D torus; the data-movement time difference is what
// topology-aware placement would recover.
func BenchmarkAblationPlacement(b *testing.B) {
	run := func(b *testing.B, scattered bool) {
		b.ReportAllocs()
		var moveTime sim.Time
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(int64(3 + i))
			mc := Franklin()
			mc.Nodes = 1000
			mc.Topology = cluster.NewTorus3D(10, 10, 10)
			mc.PerHopLatency = sim.Millisecond
			mach := NewMachine(eng, mc)
			// Stage placement: the simulation's I/O aggregator sits at
			// node 0; helper/bonds/csym staging nodes are either its
			// torus neighbors or the far reaches of the machine.
			helper := []int{1, 2, 3, 4}
			bonds := []int{5, 6}
			csym := []int{7}
			if scattered {
				helper = []int{999, 555, 370, 841}
				bonds = []int{444, 788}
				csym = []int{655}
			}
			eng.Go("traffic", func(p *sim.Proc) {
				start := p.Now()
				for step := 0; step < 20; step++ {
					h := helper[step%len(helper)]
					mach.Send(p, 0, h, 4<<20)
					bd := bonds[step%len(bonds)]
					mach.Send(p, h, bd, 4<<20)
					mach.Send(p, bd, csym[0], 1<<20)
				}
				moveTime += p.Now() - start
			})
			eng.Run()
		}
		b.ReportMetric(moveTime.Milliseconds()/float64(b.N), "data-movement-virtual-ms/op")
	}
	b.Run("co-located", func(b *testing.B) { run(b, false) })
	b.Run("scattered", func(b *testing.B) { run(b, true) })
}

// BenchmarkChaosSchedules is the traced path's ledger row: one op runs
// chaos seeds 1-8 of the failover, at-least-once delivery and sharded
// scenarios, each with the flight recorder on, then checks every oracle
// against the run. The schedules are generated before the timer starts,
// so allocs/op counts the runs, the recorder and the oracles.
func BenchmarkChaosSchedules(b *testing.B) {
	type schedule struct {
		base   *scenario.File
		faults *scenario.Faults
	}
	var corpus []schedule
	for _, path := range []string{
		"scenarios/chaos-failover.json",
		"scenarios/delivery.json",
		"scenarios/chaos-shards.json",
	} {
		base, err := scenario.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			corpus = append(corpus, schedule{base, chaos.Generate(seed, base, chaos.GenConfig{})})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range corpus {
			info := chaos.RunSchedule(s.base, s.faults)
			if v := chaos.CheckOracles(info, chaos.DefaultOracles()); len(v) > 0 {
				b.Fatalf("%d violation(s), first %s", len(v), v[0])
			}
		}
	}
}
