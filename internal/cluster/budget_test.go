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
		{"Send", 1, "the tx port's dispatch slides its waiters, so the next parked sender reallocates them",
			func(eng *sim.Engine, m *Machine) {
				for _, to := range []int{1, 2, 3} {
					eng.Go("sender", func(p *sim.Proc) {
						for m.Send(p, 0, to, size) {
						}
					})
				}
			}},
		{"Transfer", 1, "the tx port's dispatch slides its waiters, so the next queued continuation reallocates them",
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
