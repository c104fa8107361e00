package datatap

import (
	"bytes"
	"testing"

	"repro/internal/bp"
	"repro/internal/fault"
	"repro/internal/sim"
)

// newALOTestChannel is newFaultyChannel with at-least-once delivery.
func newALOTestChannel(t *testing.T, fcfg fault.Config, cfg Config) (*sim.Engine, *Channel) {
	t.Helper()
	cfg.Delivery = DeliveryAtLeastOnce
	eng, _, ch := newFaultyChannel(t, fcfg, cfg)
	return eng, ch
}

// The retention lifecycle: a written payload holds writer-buffer space
// across the pull and frees it only on the processing ack, and the step
// ledger balances at every point.
func TestAckReleasesRetention(t *testing.T) {
	eng, ch := newALOTestChannel(t, fault.Config{Seed: 7}, Config{HomeNode: 1})
	w := ch.NewWriter(2)
	r := ch.NewReader(1)
	var beforeAck int64 = -1
	var last *Meta
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 3; i++ {
			if !w.Write(p, i, 1<<20, nil) {
				t.Error("write failed")
			}
		}
	})
	eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		for i := 0; i < 3; i++ {
			m, ok := r.Fetch(p)
			if !ok {
				t.Error("fetch failed")
				return
			}
			if i == 0 {
				beforeAck = int64(w.buf.InUse())
			}
			r.Ack(p, m)
			last = m
		}
		r.Ack(p, last) // duplicate ack is a no-op
	})
	eng.Run()
	if beforeAck != 3<<20 {
		t.Fatalf("buffered %d before the first ack; retention must hold space until acked", beforeAck)
	}
	if w.buf.InUse() != 0 {
		t.Fatalf("buffered %d after acks, want 0", w.buf.InUse())
	}
	d := ch.DeliverySnapshot()
	if d.StepsWritten != 3 || d.StepsAcked != 3 || d.Retained != 0 {
		t.Fatalf("snapshot %+v", d)
	}
	if n := d.Unaccounted(); n != 0 {
		t.Fatalf("%d steps unaccounted", n)
	}
}

// A pull that fails during a transient partition marks the step lost;
// the repair loop re-emits it once the partition heals, and the reader
// applies it exactly once.
func TestRedeliveryAfterFailedPull(t *testing.T) {
	eng, ch := newALOTestChannel(t, fault.Config{
		Seed:       7,
		Partitions: []fault.Partition{{From: 5 * sim.Second, Until: 30 * sim.Second, Nodes: []int{2}}},
	}, Config{HomeNode: 1})
	w := ch.NewWriter(2)
	r := ch.NewReader(1)
	var got []int64
	eng.Go("writer", func(p *sim.Proc) {
		if !w.Write(p, 7, 1<<20, "payload") {
			t.Error("write failed")
		}
	})
	eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(10 * sim.Second) // fetch mid-partition: the pull fails
		for {
			m, ok := r.Fetch(p)
			if !ok {
				return
			}
			got = append(got, m.Step)
			r.Ack(p, m)
			ch.Close()
		}
	})
	eng.Run()
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v, want the one step exactly once", got)
	}
	d := ch.DeliverySnapshot()
	if d.StepsRedelivered == 0 {
		t.Fatalf("snapshot %+v: the lost pull was never redelivered", d)
	}
	if d.InvalidatedLive != 1 {
		t.Fatalf("snapshot %+v: the partitioned pull should count as a live invalidation", d)
	}
	if d.StepsAcked != 1 || d.Unaccounted() != 0 {
		t.Fatalf("snapshot %+v: ledger does not balance", d)
	}
}

// Queue pressure spills writes to the provenance-stamped store instead of
// blocking, the drain loop reinjects them in order once pressure clears,
// and the finalized BP stream records every spill.
func TestSpillAndDrainUnderQueuePressure(t *testing.T) {
	const steps = 6
	eng, ch := newALOTestChannel(t, fault.Config{Seed: 7}, Config{
		HomeNode: 1,
		QueueCap: 2, // spill threshold = 1 queued descriptor
	})
	w := ch.NewWriter(2)
	r := ch.NewReader(1)
	var got []int64
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(1); i <= steps; i++ {
			if !w.Write(p, i, 1<<20, nil) {
				t.Error("write failed")
			}
		}
	})
	eng.Go("reader", func(p *sim.Proc) {
		p.Sleep(20 * sim.Second)
		for len(got) < steps {
			m, ok := r.Fetch(p)
			if !ok {
				t.Error("channel closed early")
				return
			}
			got = append(got, m.Step)
			r.Ack(p, m)
		}
		ch.Close()
	})
	eng.Run()
	if len(got) != steps {
		t.Fatalf("fetched %d steps, want %d", len(got), steps)
	}
	for i, s := range got {
		if s != int64(i+1) {
			t.Fatalf("order %v: drain must reinject oldest first", got)
		}
	}
	d := ch.DeliverySnapshot()
	if d.StepsSpilled == 0 {
		t.Fatalf("snapshot %+v: queue pressure never spilled", d)
	}
	if d.StepsDrained != d.StepsSpilled || d.SpillResident != 0 {
		t.Fatalf("snapshot %+v: spill store not fully drained", d)
	}
	if d.StepsAcked != steps || d.Unaccounted() != 0 {
		t.Fatalf("snapshot %+v: ledger does not balance", d)
	}

	dump, err := ch.SpillDump()
	if err != nil {
		t.Fatalf("spill dump: %v", err)
	}
	br, err := bp.NewReader(bytes.NewReader(dump))
	if err != nil {
		t.Fatalf("reading spill stream: %v", err)
	}
	if int64(br.Steps()) != d.StepsSpilled {
		t.Fatalf("spill stream has %d records, want %d", br.Steps(), d.StepsSpilled)
	}
	for i := 0; i < br.Steps(); i++ {
		pg, err := br.ReadStep(i)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if pg.Group != ch.Name() || pg.Attrs["datatap.spill.kind"] != "payload" ||
			pg.Attrs["datatap.spill.reason"] != "queue" ||
			pg.Attrs["datatap.spill.seq"] == "" {
			t.Fatalf("record %d lacks provenance: %+v", i, pg)
		}
	}
}

// A replayed descriptor for an already-acked sequence is filtered by the
// reader-side dedupe — at-least-once delivery, exactly-once application.
func TestReplayedStepAppliedExactlyOnce(t *testing.T) {
	eng, ch := newALOTestChannel(t, fault.Config{Seed: 7}, Config{HomeNode: 1})
	w := ch.NewWriter(2)
	r := ch.NewReader(1)
	eng.Go("run", func(p *sim.Proc) {
		w.Write(p, 1, 1<<20, nil)
		m, ok := r.Fetch(p)
		if !ok {
			t.Error("fetch failed")
			return
		}
		r.Ack(p, m)
		if !ch.Requeue(m) { // simulate a replayed descriptor for an applied step
			t.Error("requeue failed")
			return
		}
		if _, ok := r.FetchPoll(p, 5*sim.Second, nil); ok {
			t.Error("replay of an acked step must not be re-applied")
		}
		ch.Close()
	})
	eng.Run()
	d := ch.DeliverySnapshot()
	if d.StepsDuplicate != 1 {
		t.Fatalf("snapshot %+v: the replay should be counted as a filtered duplicate", d)
	}
	if d.StepsAcked != 1 || d.Unaccounted() != 0 {
		t.Fatalf("snapshot %+v: ledger does not balance", d)
	}
}

// A write rejected because the writer's own node died mid-push never
// enters the step ledger: no crash-lost charge (that would unbalance the
// ledger against StepsWritten), but the loss still leaves an explicit
// tombstone in the spill provenance.
func TestWriterCrashMidWriteIsRejectedNotCounted(t *testing.T) {
	eng, ch := newALOTestChannel(t, fault.Config{
		Seed:    7,
		Crashes: []fault.Crash{{Node: 2, At: 5 * sim.Second}},
	}, Config{HomeNode: 1})
	w := ch.NewWriter(2)
	ok := true
	eng.Go("writer", func(p *sim.Proc) {
		p.Sleep(10 * sim.Second) // node 2 is already down
		ok = w.Write(p, 1, 1<<20, nil)
	})
	eng.Run()
	if ok {
		t.Fatal("write from a dead node should be rejected")
	}
	d := ch.DeliverySnapshot()
	if d.StepsWritten != 0 || d.StepsCrashLost != 0 || d.Retained != 0 || d.Unaccounted() != 0 {
		t.Fatalf("snapshot %+v: a rejected write must not enter the ledger", d)
	}
	dump, err := ch.SpillDump()
	if err != nil {
		t.Fatalf("spill dump: %v", err)
	}
	br, err := bp.NewReader(bytes.NewReader(dump))
	if err != nil {
		t.Fatalf("reading spill stream: %v", err)
	}
	if br.Steps() != 1 {
		t.Fatalf("spill stream has %d records, want the one tombstone", br.Steps())
	}
	pg, err := br.ReadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Attrs["datatap.spill.kind"] != "tombstone" ||
		pg.Attrs["datatap.spill.reason"] != "writer-crash" {
		t.Fatalf("record %+v is not a writer-crash tombstone", pg)
	}
}

// Double InvalidateNode in at-least-once mode: the first purge tombstones
// every step still on the crashed writer's side; the second finds nothing
// and charges nothing, and the ledger stays balanced throughout.
func TestDoubleInvalidateNodeALO(t *testing.T) {
	eng, ch := newALOTestChannel(t, fault.Config{Seed: 7}, Config{HomeNode: 1})
	w := ch.NewWriter(2)
	eng.Go("writer", func(p *sim.Proc) {
		for i := int64(0); i < 2; i++ {
			if !w.Write(p, i, 1<<20, nil) {
				t.Error("write failed")
			}
		}
	})
	eng.Run()
	if n := ch.InvalidateNode(2); n != 2 {
		t.Fatalf("first purge dropped %d descriptors, want 2", n)
	}
	if n := ch.InvalidateNode(2); n != 0 {
		t.Fatalf("second purge dropped %d descriptors, want 0", n)
	}
	d := ch.DeliverySnapshot()
	if d.StepsCrashLost != 2 {
		t.Fatalf("snapshot %+v: double purge must tombstone each step exactly once", d)
	}
	if d.Retained != 0 || d.Unaccounted() != 0 {
		t.Fatalf("snapshot %+v: ledger does not balance", d)
	}
	if w.buf.InUse() != 0 {
		t.Fatalf("buffered %d after forfeit, want 0", w.buf.InUse())
	}
}

// Requeue on a closed channel fails without disturbing the ledger: the
// pulled step stays retained (pulled, awaiting ack) rather than being
// silently dropped or double-counted.
func TestRequeueClosedChannelALO(t *testing.T) {
	eng, ch := newALOTestChannel(t, fault.Config{Seed: 7}, Config{HomeNode: 1})
	w := ch.NewWriter(2)
	r := ch.NewReader(1)
	eng.Go("run", func(p *sim.Proc) {
		w.Write(p, 1, 1<<20, nil)
		m, ok := r.Fetch(p)
		if !ok {
			t.Error("fetch failed")
			return
		}
		ch.Close()
		if ch.Requeue(m) {
			t.Error("requeue into a closed channel should fail")
		}
	})
	eng.Run()
	d := ch.DeliverySnapshot()
	if d.Retained != 1 {
		t.Fatalf("snapshot %+v: the pulled step should still be retained", d)
	}
	if d.Unaccounted() != 0 {
		t.Fatalf("snapshot %+v: ledger does not balance", d)
	}
}
