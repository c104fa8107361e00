package trace

import (
	"testing"

	"repro/internal/sim"
)

// TestSpanAllocBudget pins the steady-state allocations of the recorder's
// hot paths once the flight ring is full: spans come from the freelist
// End refills, attr slices from the records the ring evicts, and a kernel
// instant is a plain ring write. Each cycle must allocate exactly the
// budget: a new allocation fails, and so does an unrecorded saving.
func TestSpanAllocBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	r := New(eng, Config{RingCap: 64, Kernel: true})
	k := NewKernel(r)
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"Begin/End", func() {
			r.Begin(1, "datatap", "pull").Container("bonds").Node(3).Step(7).End()
		}},
		{"Begin/Attr/End", func() {
			r.Begin(1, "evpath", "send").Node(3).Attr("type", "ctl").AttrInt("dst", 42).End()
		}},
		{"Instant", func() {
			r.Instant(1, "datatap", "ack").Container("bonds").Step(7).End()
		}},
		{"kernel Event", func() { k.Event(eng.Now(), "wake replica") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 2*64; i++ {
				c.cycle() // fill the ring and the span and attr pools
			}
			if got := testing.AllocsPerRun(100, c.cycle); got != 0 {
				t.Errorf("%v allocations per span, budget 0", got)
			}
		})
	}
}
