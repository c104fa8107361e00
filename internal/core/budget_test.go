package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/smartpointer"
)

// TestControlRoundAllocBudget pins the allocations of one control round
// once the pipeline has drained: the global manager issues query rounds
// back to back to the bonds container over the control bridge, the
// container's manager loop serves each, and the response comes back to
// the caller. The round deadline is cut to 10 ms so that the deadlines of
// earlier rounds fire, and their timers recycle, within the warm-up. A
// new allocation fails the test, and so does an unrecorded saving. A
// round that goes unanswered ends the driver, and the test stops there
// instead of stepping an engine that will never count another round.
func TestControlRoundAllocBudget(t *testing.T) {
	cfg := protoConfig(2, smartpointer.ModelRR)
	cfg.Policy.CallTimeout = 10 * sim.Millisecond
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds, stopped := 0, false
	rt.eng.GoAt(300*sim.Second, "driver", func(p *sim.Proc) {
		for rt.shardPrimary[0].Query(p, "bonds", 4) != nil {
			rounds++
		}
		stopped = true
	})
	round := func() {
		for n := rounds; rounds == n; {
			if stopped || !rt.eng.Step() {
				t.Fatalf("query round %d got no answer", rounds+1)
			}
		}
	}
	rt.eng.RunUntil(300 * sim.Second)
	for i := 0; i < 2000; i++ {
		round()
	}
	if rt.eng.Now() < 300*sim.Second+2*cfg.Policy.CallTimeout {
		t.Fatalf("warm-up ended at %v, before the first deadlines fired", rt.eng.Now())
	}
	// 4: the request and its event; the response and its event. The GM's
	// inbox hands the response event itself to the response mailbox, with
	// no copy. The four queues on the way (the container-bound bridge, the
	// container's mailbox, the GM-bound bridge, the GM's response mailbox)
	// reuse their FIFOs' arrays.
	const budget = 4
	if got := testing.AllocsPerRun(100, round); got != budget {
		t.Errorf("%v allocations per query round, budget %d", got, budget)
	}
}
