package cluster

import (
	"testing"

	"repro/internal/sim"
)

// TestNetworkAllocBudget pins the steady-state allocations of one message
// on the interconnect: three senders on node 0 contend for its tx port,
// so every message walks the port's wait path, either as the blocking
// Send of a process or as an event-driven Transfer chain. A new
// allocation fails the test, and so does an unrecorded saving.
func TestNetworkAllocBudget(t *testing.T) {
	const size = 1 << 20
	for _, c := range []struct {
		name  string
		want  float64
		why   string
		start func(eng *sim.Engine, m *Machine)
	}{
		{"Send", 0, "the ports' wait lists are head-indexed FIFOs, and the wait is the proc's own",
			func(eng *sim.Engine, m *Machine) {
				for _, to := range []int{1, 2, 3} {
					eng.Go("sender", func(p *sim.Proc) {
						for m.Send(p, 0, to, size) {
						}
					})
				}
			}},
		{"Transfer", 0, "the ports' wait lists are head-indexed FIFOs, and the transfer's step is bound once",
			func(eng *sim.Engine, m *Machine) {
				for _, to := range []int{1, 2, 3} {
					var x *Transfer
					x = m.NewTransfer(func(ok bool) {
						if ok {
							x.Start(0, to, size)
						}
					})
					x.Start(0, to, size)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := Franklin()
			cfg.Nodes = 4
			m := New(eng, cfg)
			c.start(eng, m)
			cycle := func() { // one delivered message
				for n := m.Stats().Messages; m.Stats().Messages == n; {
					eng.Step()
				}
			}
			for i := 0; i < 50; i++ {
				cycle()
			}
			if got := testing.AllocsPerRun(100, cycle); got != c.want {
				t.Errorf("%v allocations per message, budget %v (%s)", got, c.want, c.why)
			}
		})
	}
}

// TestMachineBuildAllocBudget pins the allocations of building a machine
// to a count that does not grow with its size: the Machine, its node
// slab and its free map. A per-node allocation would make the 1,048-node
// build (the paper's Fig. 9 machine) cost more than the 64-node one.
func TestMachineBuildAllocBudget(t *testing.T) {
	const budget = 3
	eng := sim.NewEngine(1)
	for _, nodes := range []int{64, 1048} {
		cfg := Franklin()
		cfg.Nodes = nodes
		if got := testing.AllocsPerRun(20, func() { New(eng, cfg) }); got != budget {
			t.Errorf("%d nodes: %v allocations per build, budget %d (the machine, the node slab, the free map)",
				nodes, got, budget)
		}
	}
}
