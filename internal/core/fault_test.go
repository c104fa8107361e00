package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// faultConfig is the Fig. 7 pipeline with one spare staging node and a
// deterministic crash of a non-manager Bonds node at t=60. Management is
// disabled so the tests observe the self-healing path in isolation.
func faultConfig() Config {
	return Config{
		SimNodes:     256,
		StagingNodes: 14, // DefaultSizes(13) uses 13; one spare remains
		Sizes:        DefaultSizes(13),
		Steps:        20,
		CrackStep:    -1,
		Seed:         42,
		Policy:       PolicyConfig{DisableManagement: true},
		Faults: &fault.Config{
			// Staging IDs start at SimNodes; helper owns 256..261, bonds
			// 262 (manager) and 263. Crash the non-manager bonds node.
			Crashes: []fault.Crash{{Node: 263, At: 60 * sim.Second}},
		},
	}
}

// stagingConservation checks that every staging node is in exactly one
// place: a container, the spare pool, or the crashed set.
func stagingConservation(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	total := res.Spare
	for _, n := range res.FinalSizes {
		total += n
	}
	for _, id := range res.DownNodes {
		if id >= cfg.SimNodes {
			total++
		}
	}
	if total != cfg.StagingNodes {
		t.Fatalf("staging nodes leaked: %d accounted, want %d (sizes %v spare %d down %v)",
			total, cfg.StagingNodes, res.FinalSizes, res.Spare, res.DownNodes)
	}
}

func TestCrashedReplicaHealsFromSpare(t *testing.T) {
	cfg := faultConfig()
	res := runScenario(t, cfg)
	if !hasAction(res, "heal", "bonds") {
		t.Fatalf("no heal recorded: %v", res.Actions)
	}
	if hasAction(res, "degrade", "bonds") {
		t.Fatalf("healed container also degraded: %v", res.Actions)
	}
	// The replacement restores the pre-crash size, consuming the spare.
	if res.FinalSizes["bonds"] != 2 {
		t.Fatalf("bonds at %d nodes after heal, want 2", res.FinalSizes["bonds"])
	}
	if res.Spare != 0 {
		t.Fatalf("spare pool %d after heal, want 0", res.Spare)
	}
	if res.FaultStats.CrashesFired != 1 || len(res.DownNodes) != 1 || res.DownNodes[0] != 263 {
		t.Fatalf("fault accounting wrong: %+v down %v", res.FaultStats, res.DownNodes)
	}
	stagingConservation(t, cfg, res)
	// The heal happens within the detection grace (one watch interval)
	// plus the launch/exchange budget — not at the end of the run.
	for _, a := range res.Actions {
		if a.Kind == "heal" && (a.T < 60*sim.Second || a.T > 150*sim.Second) {
			t.Fatalf("heal at %v, outside the expected window", a.T)
		}
	}
}

func TestCrashedReplicaDegradesWithoutSpare(t *testing.T) {
	cfg := faultConfig()
	cfg.StagingNodes = 13 // all owned; the spare pool is empty
	res := runScenario(t, cfg)
	if !hasAction(res, "degrade", "bonds") {
		t.Fatalf("no degrade recorded: %v", res.Actions)
	}
	if hasAction(res, "heal", "bonds") {
		t.Fatalf("heal without spares: %v", res.Actions)
	}
	// The container continues at the smaller size instead of stalling.
	if res.FinalSizes["bonds"] != 1 {
		t.Fatalf("bonds at %d nodes, want 1 after degrade", res.FinalSizes["bonds"])
	}
	if bonds := res.Recorder.Series("latency.bonds"); bonds.Len() == 0 {
		t.Fatal("degraded bonds stopped processing entirely")
	}
	stagingConservation(t, cfg, res)
}

func TestSelfHealingDisabledLeavesGap(t *testing.T) {
	cfg := faultConfig()
	cfg.Policy.DisableSelfHealing = true
	res := runScenario(t, cfg)
	if hasAction(res, "heal", "bonds") || hasAction(res, "degrade", "bonds") {
		t.Fatalf("healing disabled but restart protocol ran: %v", res.Actions)
	}
	// The dead node stays in the container's nominal set (nobody reaped
	// it), and the spare is never consumed.
	if res.Spare != 1 {
		t.Fatalf("spare %d, want 1 untouched", res.Spare)
	}
}

// The acceptance scenario for suspect marking: a container's manager node
// dies mid-run; the global manager's next control round times out, retries
// with backoff, gives up, marks the container suspect — and the policy
// tick completes instead of blocking forever.
func TestDeadManagerMarkedSuspectWithoutBlockingPolicy(t *testing.T) {
	ticksAfterSuspect := 0
	cfg := Config{
		SimNodes:     256,
		StagingNodes: 14,
		Sizes:        DefaultSizes(13),
		Steps:        20,
		CrackStep:    -1,
		Seed:         42,
		Policy: PolicyConfig{
			CallTimeout:        5 * sim.Second, // 5+10+20 s to suspect
			DisableSelfHealing: true,           // isolate the suspect path
		},
		Faults: &fault.Config{
			// csym's manager node (first of 264,265) dies at t=50.
			Crashes: []fault.Crash{{Node: 264, At: 50 * sim.Second}},
		},
	}
	cfg.Policy.CustomTick = func(gm *GlobalManager, p *sim.Proc) {
		// Query csym every tick: before the crash it answers; after, the
		// round must eventually give up rather than wedge the manager.
		gm.Query(p, "csym", cfg.StagingNodes)
		if len(gm.Suspects()) > 0 {
			ticksAfterSuspect++
		}
	}
	res := runScenario(t, cfg)
	if !hasAction(res, "suspect", "csym") {
		t.Fatalf("csym never marked suspect: %v", res.Actions)
	}
	if len(res.Suspects) != 1 || res.Suspects[0] != "csym" {
		t.Fatalf("suspects %v, want [csym]", res.Suspects)
	}
	// Policy ticks kept coming after the suspect marking: the control
	// plane did not block on the dead container.
	if ticksAfterSuspect < 3 {
		t.Fatalf("only %d ticks after suspect; policy blocked", ticksAfterSuspect)
	}
	// The suspect marking happened within the retry budget (crash at 50,
	// next tick ≤65, three rounds of 5/10/20 s ≤ 100), not at run end.
	for _, a := range res.Actions {
		if a.Kind == "suspect" && a.T > 110*sim.Second {
			t.Fatalf("suspect at %v: retries took too long", a.T)
		}
	}
}

// A crashed node must fail transfers addressed to it and invalidate the
// descriptors it left queued, but the pipeline keeps flowing.
func TestFaultRunsStayDeterministic(t *testing.T) {
	run := func() *Result { return runScenario(t, faultConfig()) }
	a, b := run(), run()
	av := a.Recorder.Series("latency.bonds").Values()
	bv := b.Recorder.Series("latency.bonds").Values()
	if len(av) != len(bv) {
		t.Fatalf("sample counts differ: %d vs %d", len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("divergence at sample %d: %v vs %v", i, av[i], bv[i])
		}
	}
	if len(a.Actions) != len(b.Actions) {
		t.Fatalf("action counts differ: %d vs %d", len(a.Actions), len(b.Actions))
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			t.Fatalf("action %d differs: %+v vs %+v", i, a.Actions[i], b.Actions[i])
		}
	}
	if a.FaultStats != b.FaultStats {
		t.Fatalf("fault stats differ: %+v vs %+v", a.FaultStats, b.FaultStats)
	}
}

// Link-degradation windows slow the pipeline while active; the run still
// completes, and a fault-free run with the same seed is unperturbed by the
// existence of the fault plumbing.
func TestLinkDegradationWindowSlowsTransfers(t *testing.T) {
	clean := runScenario(t, fig7Config())
	cfg := fig7Config()
	cfg.Policy.DisableManagement = true
	cfg.Faults = &fault.Config{
		Links: []fault.LinkFault{{
			From: 30 * sim.Second, Until: 120 * sim.Second,
			LatencyFactor: 50, SlowdownFactor: 8,
		}},
	}
	degraded := runScenario(t, cfg)
	if degraded.Emitted == 0 {
		t.Fatal("degraded run emitted nothing")
	}
	// During the window, e2e latency must exceed the clean run's floor.
	cleanE2E := clean.Recorder.Series("e2e").Values()
	if len(cleanE2E) == 0 {
		t.Fatal("clean run has no e2e samples")
	}
	floor := cleanE2E[0]
	var worst float64
	for _, pt := range degraded.Recorder.Series("e2e").Points {
		if pt.T >= 30*sim.Second && pt.V > worst {
			worst = pt.V
		}
	}
	if worst <= floor {
		t.Fatalf("degradation invisible: worst %.2fs vs clean floor %.2fs", worst, floor)
	}
}

// A crash of the standby's node must not leave a ghost standby that takes
// over later.
func TestCrashedStandbyNeverTakesOver(t *testing.T) {
	cfg := fig7Config()
	cfg.ShardStandbys = 1
	cfg.Faults = &fault.Config{
		// The standby lives on the second staging node (257).
		Crashes: []fault.Crash{{Node: 257, At: 30 * sim.Second}},
	}
	res := runScenario(t, cfg)
	if hasAction(res, "failover", "global-manager") {
		t.Fatalf("dead standby took over: %v", res.Actions)
	}
	// The primary keeps managing normally.
	if !hasAction(res, "increase", "bonds") {
		t.Fatalf("primary stopped managing: %v", res.Actions)
	}
}

// A container whose MANAGER node dies goes silent rather than loud: the
// surviving replicas starve, report no queue pressure, and the bottleneck
// scan never gains a reason to call the container. The silence probe must
// give the suspect machinery that reason — under the default policy tick,
// with no CustomTick forcing the call.
func TestHeadlessContainerSuspectedBySilenceProbe(t *testing.T) {
	cfg := Config{
		SimNodes:     256,
		StagingNodes: 14,
		Sizes:        DefaultSizes(13),
		Steps:        20,
		CrackStep:    -1,
		Seed:         42,
		Policy: PolicyConfig{
			CallTimeout:        5 * sim.Second, // 5+10+20 s probe budget
			DisableSelfHealing: true,           // isolate the detection path
		},
		Faults: &fault.Config{
			// csym's manager node (first of 264,265) dies at t=50. Nothing
			// downstream of csym applies backpressure that would make the
			// GM call it on its own.
			Crashes: []fault.Crash{{Node: 264, At: 50 * sim.Second}},
		},
	}
	res := runScenario(t, cfg)
	if !hasAction(res, "suspect", "csym") {
		t.Fatalf("headless csym never suspected: %v", res.Actions)
	}
	if len(res.Suspects) != 1 || res.Suspects[0] != "csym" {
		t.Fatalf("suspects %v, want [csym]", res.Suspects)
	}
	// Detection latency is bounded: silencePatience (4) intervals of
	// silence from the last proof of life, one probe round of 5+10+20 s.
	for _, a := range res.Actions {
		if a.Kind == "suspect" && a.T > 200*sim.Second {
			t.Fatalf("suspect at %v: silence probe too slow", a.T)
		}
	}
	// The control plane keeps managing the responsive part of the
	// pipeline: the Fig. 7 helper->bonds trade still lands.
	if !hasAction(res, "increase", "bonds") {
		t.Fatalf("management stopped after the suspect: %v", res.Actions)
	}
}
