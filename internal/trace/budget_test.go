package trace

import (
	"testing"

	"repro/internal/sim"
)

// TestSpanAllocBudget pins the recorder's allocations per record. Once
// the flight ring is full, spans come from the freelist End refills, a
// record's attrs go into the attr space of the slot it evicts, and a
// kernel instant is a plain slot write: a run of records allocates
// nothing. While the ring fills, its chunks are the only allocations:
// one ring chunk per ringChunk records and one attr chunk per attrChunk
// attrs. Each run must allocate exactly the budget: a new allocation
// fails, and so does an unrecorded saving.
func TestSpanAllocBudget(t *testing.T) {
	const n = 4 * attrChunk // records per measured run
	for _, c := range []struct {
		name    string
		ringCap int
		cycle   func(r *Recorder, k *Kernel, i int)
		budget  int // allocations per n records once warmed up
	}{
		{"Begin/End", 64, func(r *Recorder, _ *Kernel, _ int) {
			r.Begin(1, "datatap", "pull").Container("bonds").Node(3).Step(7).End()
		}, 0},
		{"Begin/Attr/End", 64, func(r *Recorder, _ *Kernel, _ int) {
			r.Begin(1, "evpath", "send").Node(3).Attr("type", "ctl").AttrInt("dst", 42).End()
		}, 0},
		{"Instant", 64, func(r *Recorder, _ *Kernel, _ int) {
			r.Instant(1, "datatap", "ack").Container("bonds").Step(7).End()
		}, 0},
		{"kernel Event", 64, func(r *Recorder, k *Kernel, _ int) {
			k.Event(r.eng.Now(), "wake replica")
		}, 0},
		// An odd capacity makes each slot alternate between the two
		// shapes, so a 3-attr record lands in a slot a 0-attr record
		// held: eviction must reuse its attr space, not carve more.
		{"full ring, 0 and 3 attrs alternating", 63, func(r *Recorder, _ *Kernel, i int) {
			sp := r.Begin(1, "ctl", "round.query")
			if i%2 == 1 {
				sp.Attr("kind", "query").AttrInt("seq", 1234).AttrInt("attempt", 2)
			}
			sp.End()
		}, 0},
		// The chaos ring size, still filling: the number above 99 is
		// stored, not formatted, so only the chunks allocate, plus one
		// doubling of the ring's list of chunks.
		{"filling ring, AttrInt above 99", 1 << 18, func(r *Recorder, _ *Kernel, _ int) {
			r.Begin(1, "evpath", "send").Node(3).Attr("type", "ctl").AttrInt("bytes", 4096).End()
		}, n/ringChunk + 2*n/attrChunk + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			r := New(eng, Config{RingCap: c.ringCap, Kernel: true})
			k := NewKernel(r)
			i := 0
			run := func() {
				for range n {
					c.cycle(r, k, i)
					i++
				}
			}
			// AllocsPerRun's warm-up run fills the small rings and the
			// span pool, and leaves the filling ring chunk-aligned.
			if got := testing.AllocsPerRun(1, run); got != float64(c.budget) {
				t.Errorf("%v allocations per %d records, budget %d", got, n, c.budget)
			}
		})
	}
}
