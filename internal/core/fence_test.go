package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// partitionGMConfig builds a fig7-style run where the primary global
// manager's node is partitioned away long enough for the standby to take
// over, then healed with plenty of run left — the exact history that
// used to produce a split brain.
func partitionGMConfig(seed int64) Config {
	cfg := fig7Config()
	cfg.Seed = seed
	cfg.ShardStandbys = 1
	cfg.Trace = &trace.Config{RingCap: 1 << 18}
	// Containers co-located on the partitioned node make the takeover's
	// rehome pass ride the retry ladder; fast control timeouts keep the
	// whole failover inside the fig7 horizon.
	cfg.Policy.CallTimeout = 5 * sim.Second
	gmNode := cfg.SimNodes // staging index 0
	cfg.Faults = &fault.Config{Partitions: []fault.Partition{
		{From: 60 * sim.Second, Until: 200 * sim.Second, Nodes: []int{gmNode}},
	}}
	return cfg
}

// epochIssuers maps each epoch to the set of manager nodes that issued
// rounds in it.
func epochIssuers(res *Result) map[int64]map[int]bool {
	out := map[int64]map[int]bool{}
	for _, r := range res.Rounds {
		m := out[r.Epoch]
		if m == nil {
			m = map[int]bool{}
			out[r.Epoch] = m
		}
		m[r.Node] = true
	}
	return out
}

func TestPartitionFailoverSingleWriterPerEpoch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := partitionGMConfig(seed)
		rt, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The partition silences the heartbeats, so the standby must
		// take over even though the primary never died.
		if !hasAction(res, "failover", "global-manager") {
			t.Fatalf("seed %d: no takeover during partition: %v", seed, res.Actions)
		}
		// Fencing invariant: within any epoch, exactly one manager node
		// issues rounds.
		for epoch, nodes := range epochIssuers(res) {
			if len(nodes) > 1 {
				t.Fatalf("seed %d: epoch %d has %d issuers %v: split brain",
					seed, epoch, len(nodes), nodes)
			}
		}
		if got := rt.ShardManager(0).Epoch(); got < 2 {
			t.Fatalf("seed %d: takeover did not bump the epoch (still %d)", seed, got)
		}
	}
}

// TestPartitionFailoverSuspectsFromActingManager checks that a one-shard
// run's Result.Suspects is the acting manager's verdict alone: the
// partitioned primary gave up on containers it could no longer reach, and
// those stale verdicts must not reach the result (the chaos heal oracle
// excuses every suspect).
func TestPartitionFailoverSuspectsFromActingManager(t *testing.T) {
	rt, err := Build(partitionGMConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	deposed, acting := rt.Managers()[0], rt.ShardManager(0)
	if deposed == acting || len(deposed.Suspects()) == 0 {
		t.Fatalf("scenario lost its shape: deposed primary suspects %v", deposed.Suspects())
	}
	if got, want := fmt.Sprint(res.Suspects), fmt.Sprint(acting.Suspects()); got != want {
		t.Fatalf("result suspects %s, want the acting manager's %s", got, want)
	}
}

func TestHealedPrimaryDemotesToStandby(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := partitionGMConfig(seed)
		rt, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// After the heal the old primary must discover the higher epoch
		// (via a FenceResp to one of its rounds or a DemoteNotice answering
		// its heartbeat) and demote itself for good.
		if !rt.shardMgrs[0].Deposed() {
			t.Fatalf("seed %d: healed primary still thinks it is primary", seed)
		}
		demoted := false
		for _, a := range rt.shardMgrs[0].Actions() {
			if a.Kind == "demote" && a.Target == "global-manager" {
				demoted = true
			}
		}
		if !demoted {
			t.Fatalf("seed %d: no demote on the primary's record: %v",
				seed, rt.shardMgrs[0].Actions())
		}
		// The deposition is an instant in the flight recorder, so the
		// lead-up to any split brain is preserved in the ring.
		deposed := false
		for _, r := range rt.Tracer().Records() {
			if r.Cat == "ctl" && r.Name == "deposed" {
				deposed = true
			}
		}
		if !deposed {
			t.Fatalf("seed %d: no deposition recorded in trace", seed)
		}
	}
}

func TestDeposedPrimaryNeverTakesBackOver(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := partitionGMConfig(seed)
		// Crash the new primary (standby node, staging index 1) after the
		// heal: the deposed ex-primary must NOT step back in — it cannot
		// observe the new primary's liveness, so re-promotion would reopen
		// the split brain. The pipeline running leaderless is the price of
		// safety.
		cfg.Faults.Crashes = []fault.Crash{
			{Node: cfg.SimNodes + 1, At: 280 * sim.Second}}
		rt, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		failovers := 0
		for _, a := range res.Actions {
			if a.Kind == "failover" {
				failovers++
			}
		}
		for _, a := range rt.shardMgrs[0].Actions() {
			if a.Kind == "failover" {
				failovers++
			}
		}
		if failovers != 1 {
			t.Fatalf("seed %d: %d failovers, want exactly 1", seed, failovers)
		}
		if !rt.shardMgrs[0].Deposed() {
			t.Fatalf("seed %d: primary un-deposed itself", seed)
		}
		// No round may carry the ex-primary's node after its deposition.
		deposedAt := sim.Time(-1)
		for _, r := range rt.Tracer().Records() {
			if r.Cat == "ctl" && r.Name == "deposed" {
				deposedAt = r.Start
			}
		}
		if deposedAt < 0 {
			t.Fatalf("seed %d: no deposition recorded in trace", seed)
		}
		for _, r := range res.Rounds {
			if r.Node == cfg.SimNodes && r.T > deposedAt {
				t.Fatalf("seed %d: deposed primary issued a %s round at %v",
					seed, r.Kind, r.T)
			}
		}
	}
}

func TestLegacyModeReproducesSplitBrain(t *testing.T) {
	// The chaos regression arm: with fencing disabled, the healed
	// partition leaves two managers issuing rounds in the SAME epoch.
	cfg := partitionGMConfig(1)
	cfg.Policy.DisableFencing = true
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if nodes := epochIssuers(res)[1]; len(nodes) < 2 {
		t.Fatalf("legacy mode did not reproduce the split brain: epoch-1 issuers %v", nodes)
	}
	if rt.shardMgrs[0].Deposed() {
		t.Fatal("legacy mode has no fencing, yet the primary was deposed")
	}
}

// TestContainerRefusesStaleEpochRound drives the FenceResp path directly:
// after a manual takeover rehomes every container to epoch 2, a round
// from the stale epoch-1 primary must be refused (not served, not
// answered from the dedupe cache), must fire the container's fence
// trigger, and must depose the caller mid-call.
func TestContainerRefusesStaleEpochRound(t *testing.T) {
	cfg := fig7Config()
	cfg.ShardStandbys = 1
	cfg.Policy.DisableManagement = true // keep both managers' policies quiet
	cfg.Trace = &trace.Config{RingCap: 1 << 18}
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resp *QueryResp
	var reason string
	rt.Tracer().OnTrigger(func(r string) { reason = r })
	rt.Engine().GoAt(50*sim.Second, "driver", func(p *sim.Proc) {
		rt.shardStandby[0].takeOver(p)
		resp = rt.shardMgrs[0].Query(p, "bonds", cfg.StagingNodes)
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if resp != nil {
		t.Fatalf("stale primary's round was served: %+v", resp)
	}
	if !rt.shardMgrs[0].Deposed() {
		t.Fatal("FenceResp did not depose the stale primary")
	}
	if got := rt.Container("bonds").fencedEpoch; got < 2 {
		t.Fatalf("container fenced epoch %d, want >= 2", got)
	}
	if reason != "fence:bonds" {
		t.Fatalf("expected fence:bonds trigger, got %q", reason)
	}
}

// TestRehomeIdempotentUnderCtlDrops covers the lost-response failure
// mode: control-message drops around the takeover window can eat rehome
// responses after the container already switched bridges. The takeover's
// retry pass (same-seq retries answered from the dedupe cache, duplicate
// bridge switches harmless) must leave the standby managing everyone —
// no container falsely suspect.
func TestRehomeIdempotentUnderCtlDrops(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := fig7Config()
		cfg.Seed = seed
		cfg.ShardStandbys = 1
		cfg.Policy.KillGMAt = 40 * sim.Second
		cfg.Faults = &fault.Config{Drops: []fault.DropWindow{
			// The takeover happens at ~85 s (40 s death + 45 s grace);
			// drop control messages over the whole window at 40%.
			{From: 80 * sim.Second, Until: 130 * sim.Second, Prob: 0.4},
		}}
		rt, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !hasAction(res, "failover", "global-manager") {
			t.Fatalf("seed %d: no failover: %v", seed, res.Actions)
		}
		if len(res.Suspects) != 0 {
			t.Fatalf("seed %d: containers suspect after lossy takeover: %v",
				seed, res.Suspects)
		}
		// The standby must actually manage post-takeover (the fig7
		// bottleneck fix still lands).
		if !hasAction(res, "increase", "bonds") {
			t.Fatalf("seed %d: standby never managed after rehome: %v",
				seed, res.Actions)
		}
	}
}

// TestTradeVoteTimeoutDerived pins the D2T vote timeout to the control
// round deadline (CallTimeout/30) instead of a hardcoded 1 s.
func TestTradeVoteTimeoutDerived(t *testing.T) {
	pc := PolicyConfig{}.withDefaults()
	if got := pc.tradeVoteTimeout(); got != sim.Second {
		t.Fatalf("default trade vote timeout %v, want 1s (CallTimeout/30)", got)
	}
	pc = PolicyConfig{CallTimeout: 60 * sim.Second}.withDefaults()
	if got := pc.tradeVoteTimeout(); got != 2*sim.Second {
		t.Fatalf("scaled trade vote timeout %v, want 2s", got)
	}
}
