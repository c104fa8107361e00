package chaos

import (
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// GenConfig tunes the schedule generator.
type GenConfig struct {
	// MaxFaults bounds the faults per schedule (default 4; every
	// schedule gets at least one).
	MaxFaults int
	// HorizonSec overrides the fault-time horizon (default: the base
	// scenario's run length, steps x output period + drain).
	HorizonSec int
}

// horizonSec derives the base scenario's virtual run length in whole
// seconds, mirroring core.Config.withDefaults.
func horizonSec(base *scenario.File) int {
	period := base.OutputPeriodSec
	if period <= 0 {
		period = 15
	}
	steps := base.Steps
	if steps <= 0 {
		steps = 20
	}
	return int(period*float64(steps) + 4*period)
}

// Generate derives a fault schedule from the seed alone: same (seed,
// base, config) in, same schedule out. Times land on whole seconds and
// probabilities on 5% steps so emitted JSON round-trips exactly.
//
// Targets are drawn from the staging area by index — which deliberately
// includes index 0 (the primary global manager's node) and index 1 (the
// standby's) — plus an occasional simulation-partition node, so crashes
// and partitions exercise the control plane's failover and fencing paths
// as often as the data plane. Simulation-node crashes are biased toward
// node 0 (the producer's aggregation point, i.e. the writer node of the
// first channel) so writer-node crashes mid-pull — the case at-least-once
// delivery must tombstone, not lose — are a first-class target rather
// than a 1-in-256 accident. Descriptor-push drop windows (dataDrops) are
// their own fault class: they exercise the push-retry and spill paths
// without touching the control plane.
func Generate(seed int64, base *scenario.File, gc GenConfig) *scenario.Faults {
	r := sim.NewRand(seed)
	maxFaults := gc.MaxFaults
	if maxFaults <= 0 {
		maxFaults = 4
	}
	horizon := gc.HorizonSec
	if horizon <= 0 {
		horizon = horizonSec(base)
	}
	if horizon < 10 {
		horizon = 10
	}
	staging := base.StagingNodes
	if staging <= 0 {
		staging = 13
	}
	simNodes := base.SimNodes
	if simNodes <= 0 {
		simNodes = 256
	}

	// window picks an integer-second fault window inside the horizon.
	window := func(maxWidth int) (from, until int) {
		from = 1 + r.Intn(horizon-5)
		width := 5 + r.Intn(maxWidth)
		until = from + width
		if until >= horizon {
			until = horizon - 1
		}
		if until <= from {
			until = from + 1
		}
		return from, until
	}
	// On sharded bases the control plane occupies the first staging
	// indexes (meta, then the shard primaries, then their standbys); bias
	// toward that region so meta-manager and shard-manager crashes are
	// fair targets rather than diluted across a large container region.
	// ctl stays 0 for single-shard bases, keeping their draw sequence (and
	// thus every historical seed's schedule) byte-identical.
	ctl := 0
	if base.Shards != nil {
		ctl = min(core.ControlNodes(base.Shards.Count, base.Shards.Standbys), staging)
	}
	stagingRef := func() scenario.NodeRef {
		idx := r.Intn(staging)
		if ctl > 0 && r.Intn(100) < 40 {
			idx = r.Intn(ctl)
		}
		return scenario.NodeRef{StagingIndex: &idx}
	}

	out := &scenario.Faults{Seed: seed}
	crashed := map[int]bool{} // avoid double-crashing one node
	n := 1 + r.Intn(maxFaults)

	// Subscriber-fleet bases draw subscriber faults only: single crashes
	// with (or without) reconnect, and reconnect storms that kill a batch
	// of subscribers at once and bring them all back within a narrow
	// window. The SLA acceptance for these scenarios is zero writer stall
	// on every seed — the fleet itself is the chaos target, and node or
	// link faults would legitimately park writers. Legacy bases never
	// enter this branch, so every historical seed's draw sequence (and
	// thus its schedule) stays byte-identical.
	if base.Subscribers != nil && base.Subscribers.Count > 0 {
		subs := base.Subscribers.Count
		for i := 0; i < n; i++ {
			switch pick := r.Intn(100); {
			case pick < 35: // reconnect storm
				k := 2 + r.Intn(14)
				if k > subs {
					k = subs
				}
				at := 1 + r.Intn(horizon-4)
				rec := at + 1 + r.Intn(3)
				for _, idx := range r.Perm(subs)[:k] {
					out.SubCrashes = append(out.SubCrashes, scenario.SubCrashFault{
						Index: idx, AtSec: float64(at), ReconnectAtSec: float64(rec)})
				}
			case pick < 80: // single crash, later reconnect
				at := 1 + r.Intn(horizon-4)
				out.SubCrashes = append(out.SubCrashes, scenario.SubCrashFault{
					Index: r.Intn(subs), AtSec: float64(at),
					ReconnectAtSec: float64(at + 1 + r.Intn(horizon/4+1))})
			default: // permanent crash: the subscriber never comes back
				out.SubCrashes = append(out.SubCrashes, scenario.SubCrashFault{
					Index: r.Intn(subs), AtSec: float64(1 + r.Intn(horizon-2))})
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		switch pick := r.Intn(100); {
		case pick < 25: // node crash
			ref := stagingRef()
			if r.Intn(100) < 20 {
				// A simulation-node crash: half the time the writer node
				// (node 0, where the producer's output buffers live), so
				// schedules routinely kill payloads out from under queued
				// descriptors.
				node := 0
				if r.Intn(2) == 0 {
					node = r.Intn(simNodes)
				}
				ref = scenario.NodeRef{Node: node}
			}
			key := ref.Node
			if ref.StagingIndex != nil {
				key = simNodes + *ref.StagingIndex
			}
			if crashed[key] {
				continue
			}
			crashed[key] = true
			out.Crashes = append(out.Crashes, scenario.CrashFault{
				NodeRef: ref, AtSec: float64(1 + r.Intn(horizon-2))})
		case pick < 45: // link degradation window
			from, until := window(horizon / 3)
			out.Links = append(out.Links, scenario.LinkFault{
				FromSec: float64(from), UntilSec: float64(until),
				LatencyFactor:  float64(1 + r.Intn(8)),
				SlowdownFactor: float64(1 + r.Intn(4))})
		case pick < 65: // partition window over a small staging node set
			from, until := window(horizon / 3)
			pf := scenario.PartitionFault{
				FromSec: float64(from), UntilSec: float64(until)}
			members := 1 + r.Intn(3)
			if members > staging {
				members = staging
			}
			for _, idx := range r.Perm(staging)[:members] {
				idx := idx
				pf.Nodes = append(pf.Nodes, scenario.NodeRef{StagingIndex: &idx})
			}
			out.Partitions = append(out.Partitions, pf)
		case pick < 80: // control-message drop window
			from, until := window(horizon / 2)
			out.Drops = append(out.Drops, scenario.DropFault{
				FromSec: float64(from), UntilSec: float64(until),
				Prob: float64(5+5*r.Intn(10)) / 100})
		case pick < 92: // descriptor-push drop window (data plane)
			from, until := window(horizon / 2)
			out.DataDrops = append(out.DataDrops, scenario.DropFault{
				FromSec: float64(from), UntilSec: float64(until),
				Prob: float64(5+5*r.Intn(10)) / 100})
		default: // replica stall window
			from, until := window(horizon / 4)
			out.Stalls = append(out.Stalls, scenario.StallFault{
				NodeRef: stagingRef(),
				FromSec: float64(from), UntilSec: float64(until)})
		}
	}
	return out
}
