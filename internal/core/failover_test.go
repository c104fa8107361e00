package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/smartpointer"
)

func TestFailoverStandbyTakesOver(t *testing.T) {
	cfg := fig7Config()
	cfg.ShardStandbys = 1
	cfg.Policy.KillGMAt = 40 * sim.Second // before any management action
	res := runScenario(t, cfg)
	// The failover is on the record...
	if !hasAction(res, "failover", "global-manager") {
		t.Fatalf("no failover recorded: %v", res.Actions)
	}
	// ...and the standby completed the Fig. 7 management sequence the
	// primary never got to perform.
	if !hasAction(res, "decrease", "helper") || !hasAction(res, "increase", "bonds") {
		t.Fatalf("standby did not manage: %v", res.Actions)
	}
	if res.FinalSizes["bonds"] <= 2 {
		t.Fatalf("bottleneck never fixed: %v", res.FinalSizes)
	}
	if res.Emitted != 20 || res.Exits != 20 {
		t.Fatalf("run damaged: emitted=%d exits=%d", res.Emitted, res.Exits)
	}
	// Node conservation across the takeover.
	total := res.Spare
	for _, n := range res.FinalSizes {
		total += n
	}
	if total != cfg.StagingNodes {
		t.Fatalf("nodes %d != %d after failover", total, cfg.StagingNodes)
	}
	// The failover happens after the grace period, not instantly.
	for _, a := range res.Actions {
		if a.Kind == "failover" && a.T < 40*sim.Second {
			t.Fatalf("failover at %v, before the primary died", a.T)
		}
	}
}

func TestStandbyStaysQuietWhilePrimaryHealthy(t *testing.T) {
	cfg := fig7Config()
	cfg.ShardStandbys = 1 // no kill: the primary stays up
	res := runScenario(t, cfg)
	if hasAction(res, "failover", "global-manager") {
		t.Fatalf("spurious failover: %v", res.Actions)
	}
	// The primary performed the usual management.
	if !hasAction(res, "increase", "bonds") {
		t.Fatalf("primary never managed: %v", res.Actions)
	}
}

func TestDeadGMWithoutStandbyLeavesBottleneck(t *testing.T) {
	cfg := fig7Config()
	cfg.Policy.KillGMAt = 40 * sim.Second
	res := runScenario(t, cfg)
	if len(res.Actions) != 0 {
		t.Fatalf("dead manager acted: %v", res.Actions)
	}
	if res.FinalSizes["bonds"] != 2 {
		t.Fatalf("bonds resized by a ghost: %v", res.FinalSizes)
	}
}

func TestFailoverDuringOverloadStillOfflines(t *testing.T) {
	// The harsher scenario: the primary dies mid-crisis at 1024 nodes;
	// the standby must pick up the overflow handling (offline cascade).
	cfg := fig9Config()
	cfg.ShardStandbys = 1
	cfg.Policy.KillGMAt = 100 * sim.Second // after the spare increase
	cfg.Policy.OfflinePatience = 6
	res := runScenario(t, cfg)
	if !hasAction(res, "failover", "global-manager") {
		t.Fatalf("no failover: %v", res.Actions)
	}
	if res.States["bonds"] != "offline" {
		t.Fatalf("standby never pruned the bottleneck: %v", res.States)
	}
	if res.Provenance["helper"] == "" {
		t.Fatal("provenance lost across failover")
	}
}

func TestFailoverWithMonitoringProbe(t *testing.T) {
	cfg := fig7Config()
	cfg.ShardStandbys = 1
	cfg.Policy.KillGMAt = 40 * sim.Second
	cfg.MonitorAggregateN = 2 // probes active
	res := runScenario(t, cfg)
	if !hasAction(res, "failover", "global-manager") {
		t.Fatalf("no failover: %v", res.Actions)
	}
	// The standby must still see monitoring after the rehome (otherwise
	// it could never find the bottleneck).
	if !hasAction(res, "increase", "bonds") {
		t.Fatalf("standby blind after rehome with probes: %v", res.Actions)
	}
}

// A standby takeover racing an in-flight resize must not leak the nodes
// the dying primary had already handed to a container: the takeover
// recomputes the spare pool only after every rehome round, and each rehome
// serializes behind whatever resize the container was executing, so
// granted nodes show up as owned, not spare.
func TestFailoverMidResizeDoesNotLeakNodes(t *testing.T) {
	// Find when the bonds increase lands in an undisturbed run, then kill
	// the primary at several offsets inside the resize window (the round
	// includes an aprun launch of up to 27 s, so these offsets fall
	// mid-round).
	clean := runScenario(t, fig7Config())
	var incAt sim.Time = -1
	for _, a := range clean.Actions {
		if a.Kind == "increase" && a.Target == "bonds" {
			incAt = a.T
			break
		}
	}
	if incAt < 0 {
		t.Fatalf("clean run never increased bonds: %v", clean.Actions)
	}
	for _, back := range []sim.Time{1, 3, 8, 15, 25} {
		killAt := incAt - back*sim.Second
		if killAt <= 0 {
			continue
		}
		cfg := fig7Config()
		cfg.ShardStandbys = 1
		cfg.Policy.KillGMAt = killAt
		rt, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		// No node may be owned by two containers, or owned and spare.
		owner := map[int]string{}
		for _, c := range rt.Containers() {
			for _, n := range c.Nodes() {
				if prev, dup := owner[n.ID]; dup {
					t.Fatalf("kill at %v: node %d owned by %s and %s",
						killAt, n.ID, prev, c.Name())
				}
				owner[n.ID] = c.Name()
			}
		}
		for _, n := range rt.ShardManager(0).SpareNodes() {
			if prev, dup := owner[n.ID]; dup {
				t.Fatalf("kill at %v: node %d both spare and owned by %s",
					killAt, n.ID, prev)
			}
			owner[n.ID] = "spare"
		}
		total := res.Spare
		for _, n := range res.FinalSizes {
			total += n
		}
		if total != cfg.StagingNodes {
			t.Fatalf("kill at %v: %d nodes accounted, want %d (sizes %v spare %d)",
				killAt, total, cfg.StagingNodes, res.FinalSizes, res.Spare)
		}
	}
}

// Regression: a parallel relaunch that completes after the run's shutdown
// horizon must not leave non-fetcher replicas polling forever (this
// exact configuration once livelocked the engine).
func TestShutdownDuringParallelRelaunch(t *testing.T) {
	cfg := Config{
		SimNodes:     320,
		StagingNodes: 16,
		Sizes:        map[string]int{"helper": 4, "bonds": 2, "csym": 1, "cna": 1},
		Steps:        6,
		CrackStep:    3,
		Seed:         3028629120847420069,
		Specs:        SpecsWithBondsModel(smartpointer.ModelParallel),
		Policy:       PolicyConfig{DisableStealing: true},
	}
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// The engine must fully drain: no replica may still be scheduling
	// wake events.
	if rt.Engine().Pending() != 0 {
		t.Fatalf("engine still has %d pending events", rt.Engine().Pending())
	}
}

// TestFailoverResultKeepsPrimaryActions checks that a failover run's
// Result.Actions is the whole control plane's log: what the original
// primary did before it died stays on the record next to the standby's
// takeover, in time order.
func TestFailoverResultKeepsPrimaryActions(t *testing.T) {
	cfg := Config{StagingNodes: 16, Sizes: DefaultSizes(13), Steps: 12,
		ShardStandbys: 1, Seed: 7}
	cfg.Policy.KillGMAt = 40 * sim.Second
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	primary := rt.Managers()[0]
	if len(primary.Actions()) == 0 || !hasAction(res, "failover", "global-manager") {
		t.Fatalf("scenario lost its shape: primary %v, result %v", primary.Actions(), res.Actions)
	}
	want := 0
	for _, gm := range rt.Managers() {
		want += len(gm.Actions())
	}
	if len(res.Actions) != want {
		t.Fatalf("result has %d actions, managers recorded %d: %v", len(res.Actions), want, res.Actions)
	}
	if first := primary.Actions()[0]; res.Actions[0] != first {
		t.Fatalf("first action %+v, want the primary's %+v", res.Actions[0], first)
	}
	for i := 1; i < len(res.Actions); i++ {
		if res.Actions[i].T < res.Actions[i-1].T {
			t.Fatalf("actions out of time order: %v", res.Actions)
		}
	}
}
