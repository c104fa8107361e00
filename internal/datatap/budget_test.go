package datatap

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStepAllocBudget pins the steady-state allocations of one staged
// step, from the writer on node 0 through the metadata queue on node 1 to
// the reader there: a best-effort write and fetch (with room in the
// queue, and against a full one, where every write fires the overflow
// trigger and parks), and an at-least-once write, fetch and ack. A new
// allocation fails the test, and so does an unrecorded saving.
func TestStepAllocBudget(t *testing.T) {
	const size = 1 << 20
	for _, c := range []struct {
		name   string
		cfg    Config
		traced bool
		want   float64
		why    string
	}{
		{"best-effort", Config{HomeNode: 1}, false, 1,
			"the descriptor, retained in the queue by design"},
		{"best-effort full queue traced", Config{HomeNode: 1, QueueCap: 1}, true, 1,
			"the descriptor; the spans' bytes attrs are stored as int64s in ring storage"},
		{"at-least-once", Config{HomeNode: 1, Delivery: DeliveryAtLeastOnce}, false, 2,
			"the descriptor and its ledger entry, retained until the ack by design"},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			mcfg := cluster.Franklin()
			mcfg.Nodes = 4
			ch := NewChannel(eng, cluster.New(eng, mcfg), "budget", c.cfg)
			if c.traced {
				ch.SetTracer(trace.New(eng, trace.Config{RingCap: 64}))
			}
			w, r := ch.NewWriter(0), ch.NewReader(1)
			eng.Go("writer", func(p *sim.Proc) {
				for step := int64(0); w.Write(p, step, size, nil); step++ {
					if c.cfg.QueueCap == 0 {
						p.Sleep(sim.Second)
					}
				}
			})
			eng.Go("reader", func(p *sim.Proc) {
				for {
					m, ok := r.Fetch(p)
					if !ok {
						return
					}
					r.Ack(p, m)
					p.Sleep(sim.Second / 2)
				}
			})
			cycle := func() { // one fetched (and, at least once, acked) step
				for n := ch.Stats().StepsPulled; ch.Stats().StepsPulled == n; {
					eng.Step()
				}
			}
			for i := 0; i < 2*64; i++ {
				cycle()
			}
			if got := testing.AllocsPerRun(100, cycle); got != c.want {
				t.Errorf("%v allocations per step, budget %v (%s)", got, c.want, c.why)
			}
			st := ch.Stats()
			if c.cfg.Delivery == DeliveryAtLeastOnce && st.StepsAcked < st.StepsPulled-1 {
				t.Fatalf("acked %d of %d pulled steps", st.StepsAcked, st.StepsPulled)
			}
		})
	}
}
