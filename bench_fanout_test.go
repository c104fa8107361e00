package iocontainer

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// dashboardsFleet loads scenarios/dashboards.json with its subscriber
// fleet resized to n.
func dashboardsFleet(b *testing.B, n int) core.Config {
	b.Helper()
	cfg, err := scenario.LoadFile("scenarios/dashboards.json")
	if err != nil {
		b.Fatal(err)
	}
	subs := *cfg.Subscribers
	subs.Count = n
	cfg.Subscribers = &subs
	return cfg
}

// runFanoutSLA builds and runs one fan-out scenario and fails the
// benchmark outright if a writer parked for even one tick of virtual
// time, if Publish ever blocked, or if any subscriber's conservation
// ledger has a hole. It returns the result and the engine's counters.
func runFanoutSLA(b *testing.B, cfg core.Config) (*core.Result, sim.Stats) {
	b.Helper()
	rt, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.WriterStalled != 0 {
		b.Fatalf("writers stalled %v under the subscriber fleet (SLA: zero)", res.WriterStalled)
	}
	if res.SubHub.PublishStall != 0 {
		b.Fatalf("Publish parked a writer for %v", res.SubHub.PublishStall)
	}
	var unaccounted int64
	for _, s := range res.Subscribers {
		unaccounted += s.Unaccounted()
	}
	if unaccounted != 0 {
		b.Fatalf("%d sequences unaccounted across the fleet", unaccounted)
	}
	return res, rt.Engine().Stats()
}

// BenchmarkStreamingFanout pins the fan-out subsystem's SLA: a
// 1,000-subscriber dashboard fleet with Zipf-distributed read rates
// (scenarios/dashboards.json, fleet capped at 1k) rides the whole
// robustness ladder — per-subscriber staged buffers, tail eviction to
// the provenance-stamped spill store, disk-bandwidth catch-up — while
// the simulation's writers never stall on any of it (see runFanoutSLA).
func BenchmarkStreamingFanout(b *testing.B) {
	b.ReportAllocs()
	cfg := dashboardsFleet(b, 1000)
	var last *core.Result
	for i := 0; i < b.N; i++ {
		last, _ = runFanoutSLA(b, cfg)
	}
	b.ReportMetric(float64(last.SubHub.Delivered), "delivered")
	b.ReportMetric(float64(last.SubHub.SpillReads), "spill-reads")
}

// BenchmarkStreamingFanoutScaling runs the dashboard fleet at 500, 1,000
// and 2,000 subscribers under the same SLA checks. Deliveries grow
// linearly with the fleet, so a flat ns/delivery across the sub-benches
// means the fan-out tier stays cheap per reader as readers are added;
// watermark-scans/op (full rescans of the subscriber cursors) stays at or
// below the published sequence count at every size. spawns/op stays flat:
// subscribers are event chains, not processes; events/op is the kernel
// work, which grows with the deliveries.
func BenchmarkStreamingFanoutScaling(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			cfg := dashboardsFleet(b, n)
			var last *core.Result
			var kern sim.Stats
			var delivered int64
			for i := 0; i < b.N; i++ {
				last, kern = runFanoutSLA(b, cfg)
				delivered += last.SubHub.Delivered
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/delivery")
			b.ReportMetric(float64(last.SubHub.WatermarkScans), "watermark-scans/op")
			b.ReportMetric(float64(kern.Spawns), "spawns/op")
			b.ReportMetric(float64(kern.Events), "events/op")
		})
	}
}
