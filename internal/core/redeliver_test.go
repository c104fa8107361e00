package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestRepairLoopAloneRedeliversInterContainerLoss pins the single
// loss-recovery path of the at-least-once data plane: the channel's own
// repair loop. On delivery.json's pipeline, Bonds' first node (the home
// of ch.1, helper → bonds) stalls while its second node is partitioned,
// so the second node's pulls from the helper writers fail with the
// writers alive. Every control message is dropped over the same window
// and management is off, so no manager can cause a re-emission: the lost
// steps must come back through the repair loop, and the ledger must
// still balance.
func TestRepairLoopAloneRedeliversInterContainerLoss(t *testing.T) {
	cfg, err := scenario.LoadFile("../../scenarios/delivery.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy.DisableManagement = true
	layout, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bonds := layout.Container("bonds").Nodes()
	if len(bonds) < 2 {
		t.Fatalf("bonds has %d nodes, want at least 2", len(bonds))
	}
	home, reader := bonds[0].ID, bonds[1].ID
	from, until := 60*sim.Second, 90*sim.Second
	cfg.Faults = &fault.Config{
		Stalls:     []fault.Stall{{Node: home, From: from, Until: until}},
		Partitions: []fault.Partition{{From: from, Until: until, Nodes: []int{reader}}},
		Drops:      []fault.DropWindow{{From: from, Until: until, Prob: 1}},
	}
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	chs := rt.Channels()
	if home != chs[1].HomeNode() {
		t.Fatalf("ch.1 homed on node %d, want bonds' first node %d", chs[1].HomeNode(), home)
	}
	if st := chs[0].Stats(); st.Invalidated != 0 {
		t.Fatalf("%s lost %d pulls; the fault should reach only the inter-container channel",
			chs[0].Name(), st.Invalidated)
	}
	d := chs[1].DeliverySnapshot()
	if d.InvalidatedLive == 0 {
		t.Fatalf("%s: no pull failed with its writer alive: %+v", d.Channel, d)
	}
	if d.StepsRedelivered == 0 {
		t.Fatalf("%s: lost steps were never re-emitted: %+v", d.Channel, d)
	}
	for _, ch := range chs {
		if d := ch.DeliverySnapshot(); d.Unaccounted() != 0 || d.StepsAcked != d.StepsWritten {
			t.Fatalf("%s: %d steps unaccounted, %d of %d acked: %+v",
				d.Channel, d.Unaccounted(), d.StepsAcked, d.StepsWritten, d)
		}
	}
}
