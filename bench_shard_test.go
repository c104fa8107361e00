package iocontainer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// measureControlSweep runs cfg with a custom policy tick that queries
// every container the ticking manager owns, and returns the worst
// virtual-time duration of one full sweep by any single manager. On
// sharded runs the shard managers sweep concurrently, so the hottest
// shard's sweep IS the pipeline's control-round latency.
func measureControlSweep(b *testing.B, cfg core.Config) sim.Time {
	b.Helper()
	var rt *core.Runtime
	var worst sim.Time
	cfg.Policy.CustomTick = func(gm *core.GlobalManager, p *sim.Proc) {
		start := p.Now()
		for _, c := range rt.Containers() {
			if gm.ShardID() >= 0 && rt.Directory().ShardOf(c.Name()) != gm.ShardID() {
				continue
			}
			gm.Query(p, c.Name(), cfg.StagingNodes)
		}
		if d := p.Now() - start; d > worst {
			worst = d
		}
	}
	rt, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	return worst
}

// smallControlConfig is the 10-container single-manager baseline: the
// same tiny custom stages as scenarios/shards-1k.json, just ten of them
// under the legacy control plane.
func smallControlConfig(b *testing.B) core.Config {
	b.Helper()
	f := &scenario.File{
		SimNodes:        256,
		StagingNodes:    12, // 10 single-node stages + 2 spare
		OutputPeriodSec: 5,
		Steps:           2,
		CrackStep:       -1,
		Seed:            42,
		AtomsOverride:   100_000,
		Policy: scenario.Policy{
			DisableOffline:  true,
			DisableStealing: true,
			CallTimeoutSec:  5,
		},
	}
	for i := 0; i < 10; i++ {
		f.Stages = append(f.Stages, scenario.Stage{
			Name:         stageName(i),
			Kind:         "Custom",
			Model:        "Serial",
			Nodes:        1,
			OutputFactor: 1,
			SLAPeriods:   100,
			Cost:         &scenario.Cost{BaseSec: 0.001, RefAtoms: 100_000},
		})
	}
	cfg, err := f.ToConfig()
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

func stageName(i int) string {
	return "s" + string(rune('0'+i/100)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

// BenchmarkShardControlRound pins the tentpole's scaling claim: under
// the sharded control plane, sweeping control rounds over all 1,000
// containers of scenarios/shards-1k.json (100 shard managers working
// their shards concurrently) takes at most 2x the virtual time of a
// single manager sweeping a 10-container pipeline. Ring seed 25 caps the
// hottest shard at 16 containers, so the budget holds with headroom; a
// ring or round regression that re-serializes the sweep blows it.
func BenchmarkShardControlRound(b *testing.B) {
	b.ReportAllocs()
	big, err := scenario.LoadFile("scenarios/shards-1k.json")
	if err != nil {
		b.Fatal(err)
	}
	small := smallControlConfig(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		smallSweep := measureControlSweep(b, small)
		bigSweep := measureControlSweep(b, big)
		if smallSweep <= 0 || bigSweep <= 0 {
			b.Fatalf("degenerate sweeps: small=%v big=%v", smallSweep, bigSweep)
		}
		ratio = float64(bigSweep) / float64(smallSweep)
		if ratio > 2 {
			b.Fatalf("1,000-container control sweep %v is %.2fx the 10-container sweep %v (budget: 2x)",
				bigSweep, ratio, smallSweep)
		}
	}
	b.ReportMetric(ratio, "sweep-ratio")
}
