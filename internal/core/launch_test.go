package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/smartpointer"
)

// vizSpec is a lightweight mid-run visualization component.
func vizSpec() ComponentSpec {
	return ComponentSpec{
		Name:  "viz",
		Kind:  smartpointer.KindCustom,
		Model: smartpointer.ModelRR,
		Cost: smartpointer.CostModel{
			Kind:             smartpointer.KindCustom,
			Base:             3 * sim.Second,
			RefAtoms:         8819989,
			ExponentOverride: 1,
		},
		OutputFactor: 0,
	}
}

func TestMidRunLaunchTapsUpstream(t *testing.T) {
	cfg := fig7Config()
	cfg.StagingNodes = 16 // 3 spare for the viz container
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var viz *Container
	rt.eng.Go("user", func(p *sim.Proc) {
		p.Sleep(60 * sim.Second) // mid-run: "add this filter now while I'm looking"
		c, err := rt.ShardManager(0).LaunchContainer(p, vizSpec(), 2, "helper")
		if err != nil {
			t.Error(err)
			return
		}
		viz = c
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if viz == nil {
		t.Fatal("launch never happened")
	}
	// The viz container consumed duplicated steps...
	if viz.StepsProcessed() == 0 {
		t.Fatal("viz processed nothing")
	}
	// ...without stealing anything from the existing pipeline.
	if res.Exits != 20 {
		t.Fatalf("pipeline exits %d, want 20 (tap must duplicate, not steal)", res.Exits)
	}
	// Only steps emitted after the launch reach the tap.
	if viz.StepsProcessed() >= 20 {
		t.Fatalf("viz saw %d steps; launch was mid-run", viz.StepsProcessed())
	}
	// The launch is on the management record.
	if !hasAction(res, "launch", "viz") {
		t.Fatalf("no launch action: %v", res.Actions)
	}
	if len(rt.Container("helper").Taps()) != 1 {
		t.Fatal("helper has no tap")
	}
}

func TestMidRunLaunchValidation(t *testing.T) {
	cfg := fig7Config()
	cfg.StagingNodes = 16
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.eng.Go("user", func(p *sim.Proc) {
		p.Sleep(10 * sim.Second)
		gm := rt.ShardManager(0)
		if _, err := gm.LaunchContainer(p, vizSpec(), 1, "nope"); err == nil {
			t.Error("unknown upstream should fail")
		}
		if _, err := gm.LaunchContainer(p, vizSpec(), 99, "helper"); err == nil {
			t.Error("oversized launch should fail")
		}
		bad := vizSpec()
		bad.Name = "bonds" // exists
		if _, err := gm.LaunchContainer(p, bad, 1, "helper"); err == nil {
			t.Error("duplicate name should fail")
		}
		invalid := vizSpec()
		invalid.Name = ""
		if _, err := gm.LaunchContainer(p, invalid, 1, "helper"); err == nil {
			t.Error("invalid spec should fail")
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMidRunLaunchRefusedWhenSharded checks that a sharded run refuses a
// mid-run launch: shard scopes and the directory are fixed at build, so
// the container would be left out of policy ticks and failover rehoming.
func TestMidRunLaunchRefusedWhenSharded(t *testing.T) {
	cfg := shardedConfig(2, 0, 24)
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.eng.Go("user", func(p *sim.Proc) {
		p.Sleep(10 * sim.Second)
		if _, err := rt.ShardManager(0).LaunchContainer(p, vizSpec(), 1, "helper"); err == nil {
			t.Error("sharded mid-run launch should fail")
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Container("viz") != nil {
		t.Fatal("refused launch left a container behind")
	}
}

func TestSlowVizTapDropsInsteadOfStalling(t *testing.T) {
	cfg := fig7Config()
	cfg.StagingNodes = 16
	cfg.QueueCap = 2 // tiny observer queue
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.eng.Go("user", func(p *sim.Proc) {
		p.Sleep(30 * sim.Second)
		slow := vizSpec()
		slow.Cost.Base = 200 * sim.Second // cannot keep up
		if _, err := rt.ShardManager(0).LaunchContainer(p, slow, 1, "helper"); err != nil {
			t.Error(err)
		}
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline is unharmed despite the hopeless observer.
	if res.Exits != 20 {
		t.Fatalf("exits %d: slow tap stalled the pipeline", res.Exits)
	}
}

func TestCustomPolicyReplacesBuiltIn(t *testing.T) {
	cfg := fig7Config()
	fired := 0
	cfg.Policy.CustomTick = func(gm *GlobalManager, p *sim.Proc) {
		fired++
		// A deliberately different policy: grow bonds from helper at the
		// third tick, no monitoring consulted at all.
		if fired == 3 {
			if resp := gm.Decrease(p, "helper", 1); resp != nil && len(resp.Nodes) == 1 {
				gm.Increase(p, "bonds", resp.Nodes)
			}
		}
	}
	res := runScenario(t, cfg)
	if fired == 0 {
		t.Fatal("custom tick never ran")
	}
	if res.FinalSizes["bonds"] != 3 || res.FinalSizes["helper"] != 5 {
		t.Fatalf("custom policy did not apply: %v", res.FinalSizes)
	}
	// The built-in policy would have moved 2 nodes; exactly 1 moved, so
	// the built-in never ran.
	nIncreases := 0
	for _, a := range res.Actions {
		if a.Kind == "increase" {
			nIncreases++
		}
	}
	if nIncreases != 1 {
		t.Fatalf("increases %d, want exactly the custom one", nIncreases)
	}
}

func TestCustomPolicyStillGetsBranch(t *testing.T) {
	cfg := fig7Config()
	cfg.CrackStep = 4
	cfg.Policy.CustomTick = func(gm *GlobalManager, p *sim.Proc) {} // no-op policy
	res := runScenario(t, cfg)
	if !hasAction(res, "activate", "cna") {
		t.Fatalf("crack branch lost under custom policy: %v", res.Actions)
	}
}

func TestTopologyHelpers(t *testing.T) {
	cfg := fig7Config()
	cfg.Policy.DisableManagement = true
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	helper := rt.Container("helper")
	bonds := rt.Container("bonds")
	csym := rt.Container("csym")
	cna := rt.Container("cna")
	if rt.upstreamOf(bonds) != helper {
		t.Fatal("upstreamOf(bonds) != helper")
	}
	if rt.upstreamOf(helper) != nil {
		t.Fatal("helper has no container upstream")
	}
	if !rt.isDownstreamOf(helper, csym) || !rt.isDownstreamOf(bonds, csym) {
		t.Fatal("csym should be downstream of helper and bonds")
	}
	if rt.isDownstreamOf(csym, helper) {
		t.Fatal("helper is not downstream of csym")
	}
	if rt.isDownstreamOf(bonds, bonds) {
		t.Fatal("self is not downstream")
	}
	// Closure from bonds covers active csym but not inactive cna.
	closure := rt.downstreamClosure(bonds)
	names := map[string]bool{}
	for _, c := range closure {
		names[c.Name()] = true
	}
	if !names["bonds"] || !names["csym"] || names["cna"] {
		t.Fatalf("closure %v", names)
	}
	_ = cna
	// Containers() lists stage order.
	list := rt.Containers()
	if len(list) != 4 || list[0] != helper {
		t.Fatalf("containers %v", list)
	}
}

func TestHeartbeatReportsPressureDuringLongCompute(t *testing.T) {
	// With a hopeless bottleneck and management off, the only samples
	// for bonds are heartbeats; the aggregator must still see pressure.
	cfg := fig9Config()
	cfg.Steps = 12
	cfg.Policy.DisableManagement = true
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	press := res.Recorder.Series("pressure.bonds")
	if press.Len() == 0 {
		t.Fatal("no heartbeat pressure samples")
	}
	// Pressure (head age) grows while the backlog ages.
	vals := press.Values()
	if vals[len(vals)-1] <= vals[0] {
		t.Fatalf("pressure not growing: %v", vals)
	}
	// And the GM's aggregator saw them even though no step completed in
	// the measurement window.
	if w := rt.ShardManager(0).Aggregator().Window("bonds"); w == nil || w.Len() == 0 {
		t.Fatal("aggregator blind to bonds")
	}
}
