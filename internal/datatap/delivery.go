// At-least-once delivery for DataTap channels.
//
// The channel's legacy semantics (DeliveryBestEffort) are at-most-once:
// a descriptor push lost to a fault silently drops the step, and a pull
// from a crashed writer invalidates the payload and moves on. In
// at-least-once mode every accepted write is *retained* by its writer
// until a downstream processing ack, so the channel can re-emit steps
// whose pull failed, and pressure (full buffer, near-full queue, pause
// windows) degrades by spilling payloads to a provenance-stamped BP
// stream instead of blocking the application or dropping data. A repair
// loop redelivers lost steps with backoff and drains the spill store in
// order once pressure clears. Readers claim each sequence exactly once, so
// replayed steps are applied exactly once even though delivery is
// at-least-once.
//
// Crash-induced loss is never silent: payloads that die with their node
// are forfeited with a tombstone record in the spill stream, so the
// chaos delivery oracle can demand that every written step is acked,
// retained, spill-resident, or explicitly tombstoned — nothing else.
package datatap

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/bp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DeliveryMode selects a channel's loss semantics.
type DeliveryMode int

const (
	// DeliveryBestEffort is the legacy at-most-once transport: failed
	// pushes and pulls drop the step (counted, never recovered).
	DeliveryBestEffort DeliveryMode = iota
	// DeliveryAtLeastOnce retains payloads until a processing ack,
	// redelivers losses, spills under pressure, and dedupes replays.
	DeliveryAtLeastOnce
)

// String implements fmt.Stringer.
func (m DeliveryMode) String() string {
	switch m {
	case DeliveryBestEffort:
		return "best-effort"
	case DeliveryAtLeastOnce:
		return "at-least-once"
	}
	return fmt.Sprintf("delivery(%d)", int(m))
}

// At-least-once tuning, fixed for every channel (best-effort channels
// never read it).
const (
	// pushRetries bounds descriptor-push retries per write.
	pushRetries = 3
	// pushBackoff is the initial push-retry backoff, doubling per attempt.
	pushBackoff = sim.Second / 4
	// redeliverDelay is how long a lost step waits before re-emission; it
	// also rate-limits the consumer's gap notices.
	redeliverDelay = sim.Second / 2
	// redeliverRetries bounds re-emissions per step before the payload
	// spills to disk instead.
	redeliverRetries = 3
	// spillQueueFrac spills writes once the metadata queue reaches this
	// fraction of a bounded queue's capacity.
	spillQueueFrac = 0.9
	// drainInterval paces the repair loop.
	drainInterval = sim.Second
	// drainBurst bounds spill reinjections per repair tick.
	drainBurst = 8
)

// ackBytes is the on-wire size of a processing ack.
const ackBytes = 64

// spillBytesPerSec is the modelled local-storage bandwidth for spill
// writes and drain reads (a node-local SSD, not the shared PFS).
const spillBytesPerSec = 256 << 20

// spillTime returns the virtual time to move size bytes to or from the
// spill store.
func spillTime(size int64) sim.Time {
	return sim.Time(float64(size) / spillBytesPerSec * float64(sim.Second))
}

// retState tracks where a retained (written-but-unacked) step lives.
type retState uint8

const (
	// retStaged: descriptor visible downstream, payload in the writer
	// buffer.
	retStaged retState = iota
	// retPulled: payload transferred to a reader, awaiting the ack.
	retPulled
	// retLost: pull failed or requeue refused; awaiting redelivery.
	retLost
	// retSpilled: payload resident in the spill store, awaiting drain.
	retSpilled
)

// retEntry is one retained step.
type retEntry struct {
	m     *Meta
	state retState
	// buffered reports whether the payload still holds writer-buffer
	// space (released exactly once: on ack, spill, or forfeit).
	buffered     bool
	redeliveries int
	lostAt       sim.Time
}

// alo reports whether the channel runs at-least-once.
func (c *Channel) alo() bool { return c.cfg.Delivery == DeliveryAtLeastOnce }

// nearFull reports whether the metadata queue has crossed the spill
// threshold (always false for unbounded queues).
func (c *Channel) nearFull() bool {
	if c.cfg.QueueCap <= 0 {
		return false
	}
	thresh := int(float64(c.cfg.QueueCap) * spillQueueFrac)
	if thresh < 1 {
		thresh = 1
	}
	return c.meta.Len() >= thresh
}

// SetGapHandler installs the consumer-side gap callback: fn runs (from a
// reader's process) when the channel detects missing sequences, so the
// consumer container can notify the global manager to request re-emission.
func (c *Channel) SetGapHandler(fn func(missing int64)) { c.onGap = fn }

// noteGap reports missing sequences to the consumer, rate-limited to one
// notification per redeliver delay so a burst of losses does not storm
// the control plane.
func (c *Channel) noteGap(missing int64) {
	if c.onGap == nil {
		return
	}
	now := c.eng.Now()
	if c.gapNoted && now-c.lastGapNote < redeliverDelay {
		return
	}
	c.gapNoted = true
	c.lastGapNote = now
	c.onGap(missing)
}

// --- writer-side retention ---

// retain records m as written-but-unacked.
func (w *Writer) retain(m *Meta, buffered bool) *retEntry {
	e := &retEntry{m: m, buffered: buffered}
	w.retained[m.Seq] = e
	return e
}

// sortedRetained returns the retained sequences in ascending order,
// filtered by state, so replay and forfeiture are deterministic. It runs
// on repair ticks, resend rounds, and crash forfeiture — never per event.
func (w *Writer) sortedRetained(states ...retState) []int64 {
	var seqs []int64
	for seq, e := range w.retained {
		for _, st := range states {
			if e.state == st {
				seqs = append(seqs, seq)
				break
			}
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// markApplied records seq as processed downstream, compacting contiguous
// prefixes into a floor so the applied set stays small.
func (w *Writer) markApplied(seq int64) {
	if seq <= w.appliedFloor {
		return
	}
	if w.applied == nil {
		w.applied = make(map[int64]bool)
	}
	w.applied[seq] = true
	for w.applied[w.appliedFloor+1] {
		w.appliedFloor++
		delete(w.applied, w.appliedFloor)
	}
}

// isApplied reports whether seq was already processed downstream.
func (w *Writer) isApplied(seq int64) bool {
	return seq <= w.appliedFloor || w.applied[seq]
}

// releaseEntry returns the entry's writer-buffer reservation (once).
func (w *Writer) releaseEntry(e *retEntry) {
	if e.buffered {
		e.buffered = false
		w.buf.Release(int(e.m.Size))
	}
}

// forfeit tombstones one retained step whose payload died with its node:
// the buffer space is released, the step counts as crash-lost, and a
// zero-payload provenance record lands in the spill stream so the loss is
// explicitly accounted rather than silent.
func (w *Writer) forfeit(e *retEntry, reason string) {
	w.releaseEntry(e)
	delete(w.retained, e.m.Seq)
	w.ch.stats.StepsCrashLost++
	w.ch.stats.BytesCrashLost += e.m.Size
	w.ch.spillStoreFor().tombstone(w.ch.name, e.m, reason)
	w.ch.tracer.Instant(e.m.Span, "datatap", "forfeit").
		Container(w.ch.name).Node(w.node).Step(e.m.Step).Attr("reason", reason).End()
}

// forfeitAll tombstones every retained step still on the writer's side of
// the channel (staged and lost states). Pulled steps survive — their data
// already crossed to a reader and will be acked — and spilled steps
// survive on stable storage.
func (w *Writer) forfeitAll(reason string) {
	for _, seq := range w.sortedRetained(retStaged, retLost) {
		w.forfeit(w.retained[seq], reason)
	}
}

// pushDescriptor delivers the metadata descriptor to the channel's home
// node with bounded retry and doubling backoff. A push can fail outright
// (dead or partitioned endpoint) or be dropped in flight by a data-drop
// fault window; both consume retry budget.
func (w *Writer) pushDescriptor(p *sim.Proc) bool {
	if w.ch.mach == nil || w.node == w.ch.cfg.HomeNode {
		return true
	}
	backoff := pushBackoff
	for attempt := 0; ; attempt++ {
		if w.ch.mach.Send(p, w.node, w.ch.cfg.HomeNode, descriptorBytes) &&
			!w.ch.mach.Faults().DropData() {
			return true
		}
		if !w.ch.mach.Faults().NodeUp(w.node) || w.ch.closed ||
			attempt >= pushRetries {
			return false
		}
		w.ch.stats.PushRetried++
		// Retry backoff parks the application, not the interconnect: it
		// counts as writer stall, unlike the transfer costs around it.
		w.ch.stats.WriterStalled += backoff
		p.Sleep(backoff)
		backoff *= 2
	}
}

// writeALO is the at-least-once write path. It never blocks the
// application beyond transfer costs: pressure (pause window, near-full
// queue, full buffer) spills the payload instead, and a failed descriptor
// push retries with backoff before spilling. The only false return is a
// closed channel or the writer's own node dying mid-write (tombstoned, so
// even that loss is accounted).
func (w *Writer) writeALO(p *sim.Proc, step, size int64, data any, parent trace.SpanID) bool {
	sp := w.ch.tracer.Begin(parent, "datatap", "write").
		Container(w.ch.name).Node(w.node).Step(step).AttrInt("bytes", size)
	start := w.ch.eng.Now()
	w.busy = true
	w.nextSeq++
	m := &Meta{
		Step:    step,
		Size:    size,
		SrcNode: w.node,
		Data:    data,
		Span:    sp.ID(),
		Seq:     w.nextSeq,
		writer:  w,
		// The retained-step ledger owns the buffer lifecycle; releaseBuf
		// must never free it behind the ledger's back.
		released: true,
	}
	spill := ""
	switch {
	case w.ch.paused:
		spill = "paused"
	case w.ch.nearFull():
		spill = "queue"
	case !w.buf.TryAcquire(int(size)):
		spill = "buffer"
	}
	if spill == "" {
		// Local buffer copy at memory bandwidth, as in the legacy path.
		if w.ch.mach != nil {
			w.ch.mach.Send(p, w.node, w.node, size)
		}
		m.Created = w.ch.eng.Now()
		e := w.retain(m, true)
		if !w.pushDescriptor(p) {
			if w.ch.mach != nil && !w.ch.mach.Faults().NodeUp(w.node) {
				// The writer's own node died mid-write. The write is
				// REJECTED (false), so the step never enters the ledger:
				// release the retention without the crash-lost counters —
				// those balance against StepsWritten, which this write is
				// not counted in — and leave a tombstone so the loss is
				// still explicit in the spill provenance.
				w.releaseEntry(e)
				delete(w.retained, e.m.Seq)
				w.ch.spillStoreFor().tombstone(w.ch.name, e.m, "writer-crash")
				w.finishWrite(start)
				sp.Attr("fail", "writer-crash").End()
				return false
			}
			spill = "push"
		} else if !w.ch.meta.TryPut(m) {
			// The queue filled (or closed) while the push was in flight;
			// degrade to the spill store rather than blocking or dropping.
			spill = "queue"
		}
		if spill != "" {
			w.ch.spillIn(p, e, spill)
		}
	} else {
		m.Created = w.ch.eng.Now()
		w.ch.spillIn(p, w.retain(m, false), spill)
	}
	w.ch.stats.StepsWritten++
	w.ch.stats.BytesWritten += size
	if l := w.ch.meta.Len(); l > w.ch.stats.MaxQueue {
		w.ch.stats.MaxQueue = l
	}
	// Every *accepted* write fans out to subscribers, spilled or not: the
	// hub's sequence stream mirrors StepsWritten exactly.
	w.ch.hub.Publish(m)
	w.finishWrite(start)
	if spill != "" {
		sp.Attr("spill", spill)
	}
	sp.End()
	return true
}

// markLost transitions a retained step to the lost state and arms the
// repair loop.
func (c *Channel) markLost(e *retEntry) {
	e.state = retLost
	e.lostAt = c.eng.Now()
	c.ensureRepair()
}

// admit applies at-least-once bookkeeping to a successfully pulled
// descriptor. Replays of an already-applied or already-claimed sequence
// are filtered here, which is what turns at-least-once delivery into
// exactly-once application. Fresh sequences are claimed (staged →
// pulled), and sequence gaps — steps that were invalidated or spilled out
// from under the queue — fire the gap trigger and the consumer callback.
func (r *Reader) admit(p *sim.Proc, m *Meta) bool {
	if !r.ch.alo() || m.writer == nil || m.Seq == 0 {
		return true
	}
	w := m.writer
	e := w.retained[m.Seq]
	if w.isApplied(m.Seq) || e == nil || e.state != retStaged {
		r.ch.stats.StepsDuplicate++
		r.ch.tracer.Instant(m.Span, "datatap", "duplicate").
			Container(r.ch.name).Node(r.node).Step(m.Step).End()
		return false
	}
	e.state = retPulled
	if m.Seq > w.expect {
		missing := m.Seq - w.expect
		r.ch.stats.Gaps += missing
		r.ch.tracer.Trigger(r.ch.gapReason)
		r.ch.noteGap(missing)
	}
	if m.Seq >= w.expect {
		w.expect = m.Seq + 1
	}
	return true
}

// Ack records the downstream processing acknowledgement for a fetched
// step: the writer drops its retained payload (freeing buffer space) and
// the sequence counts as applied. A small ack message is charged when the
// endpoints differ; the bookkeeping itself is reliable (it lives on the
// shared channel). In best-effort mode Ack is a no-op — buffer space was
// already released at pull time.
func (r *Reader) Ack(p *sim.Proc, m *Meta) {
	if m == nil || !r.ch.alo() || m.writer == nil || m.Seq == 0 {
		return
	}
	if r.ch.mach != nil && r.node != m.SrcNode {
		// Best-effort charge; a lost ack message does not lose the ack.
		r.ch.mach.Send(p, r.node, m.SrcNode, ackBytes)
	}
	w := m.writer
	e := w.retained[m.Seq]
	if e == nil {
		return // already acked (duplicate) or tombstoned
	}
	w.releaseEntry(e)
	delete(w.retained, m.Seq)
	w.markApplied(m.Seq)
	r.ch.stats.StepsAcked++
	r.ch.tracer.Instant(m.Span, "datatap", "ack").
		Container(r.ch.name).Node(r.node).Step(m.Step).End()
}

// --- spill store ---

// spillEntry is one payload resident in the spill store.
type spillEntry struct {
	e      *retEntry
	reason string
}

// spillStore is a channel's provenance-stamped BP spill stream plus the
// in-memory resident list the drain loop reinjects from. The BP bytes are
// the durable artifact: every spilled payload and every crash tombstone
// is one process group whose attributes record channel, sequence, source
// node, reason, and size.
type spillStore struct {
	buf      bytes.Buffer
	bw       *bp.Writer
	resident []*spillEntry
	err      error
}

// spillStoreFor lazily creates the channel's spill store. Once-per-
// channel initialization plus crash/pressure paths only.
func (c *Channel) spillStoreFor() *spillStore {
	if c.spill == nil {
		c.spill = &spillStore{}
		c.spill.bw, c.spill.err = bp.NewWriter(&c.spill.buf)
	}
	return c.spill
}

// record appends one provenance process group to the BP stream. Runs
// only when a step spills or is lost to a crash — pressure degradation,
// not the per-event path.
func (s *spillStore) record(channel string, m *Meta, kind, reason string) {
	if s.err != nil || s.bw == nil {
		return
	}
	pg := &bp.ProcessGroup{
		Group:    channel,
		Timestep: m.Step,
		Attrs: map[string]string{
			"datatap.spill.kind":   kind,
			"datatap.spill.reason": reason,
			"datatap.spill.seq":    fmt.Sprintf("%d", m.Seq),
			"datatap.spill.src":    fmt.Sprintf("%d", m.SrcNode),
			"datatap.spill.bytes":  fmt.Sprintf("%d", m.Size),
		},
	}
	s.err = s.bw.Append(pg)
}

// tombstone appends a zero-payload crash-loss provenance record.
func (s *spillStore) tombstone(channel string, m *Meta, reason string) {
	s.record(channel, m, "tombstone", reason)
}

// spillIn moves a retained step into the spill store: the write-buffer
// reservation is released (the payload now lives on node-local storage),
// a provenance record is appended, and the step joins the drain queue.
// Spilling is the pressure-degradation path, deliberately off the
// per-event allocation budget.
func (c *Channel) spillIn(p *sim.Proc, e *retEntry, reason string) {
	w := e.m.writer
	if w != nil {
		w.releaseEntry(e)
	}
	e.state = retSpilled
	s := c.spillStoreFor()
	s.record(c.name, e.m, "payload", reason)
	s.resident = append(s.resident, &spillEntry{e: e, reason: reason})
	c.stats.StepsSpilled++
	c.stats.BytesSpilled += e.m.Size
	if p != nil {
		p.Sleep(spillTime(e.m.Size))
	}
	c.tracer.Trigger("spill:" + c.name)
	c.tracer.Instant(e.m.Span, "datatap", "spill").
		Container(c.name).Step(e.m.Step).Attr("reason", reason).
		AttrInt("bytes", e.m.Size).End()
	c.ensureRepair()
}

// SpillResidentSteps returns how many spilled payloads await draining.
func (c *Channel) SpillResidentSteps() int64 {
	if c.spill == nil {
		return 0
	}
	return int64(len(c.spill.resident))
}

// SpillResidentBytes returns the payload bytes resident in the spill
// store — the stable-storage term of the extended chunk-conservation
// invariant (BytesWritten + BytesRedelivered = BytesPulled +
// BytesInvalidated + QueuedBytes + SpillResidentBytes).
func (c *Channel) SpillResidentBytes() int64 {
	if c.spill == nil {
		return 0
	}
	var n int64
	for _, se := range c.spill.resident {
		n += se.e.m.Size
	}
	return n
}

// SpillDump finalizes the spill stream's footer index and returns the BP
// file bytes (nil when nothing ever spilled). Call after the run ends;
// the stream accepts no further records.
func (c *Channel) SpillDump() ([]byte, error) {
	if c.spill == nil || c.spill.bw == nil {
		return nil, nil
	}
	if c.spill.err != nil {
		return nil, c.spill.err
	}
	if err := c.spill.bw.Close(); err != nil {
		return nil, err
	}
	return c.spill.buf.Bytes(), nil
}

// --- repair loop: redelivery and spill drain ---

// ensureRepair starts the channel's repair process once.
func (c *Channel) ensureRepair() {
	if c.repairOn || !c.alo() || c.closed {
		return
	}
	c.repairOn = true
	c.eng.Go("datatap.repair "+c.name, c.repairLoop)
}

func (c *Channel) repairLoop(p *sim.Proc) {
	for !c.closed {
		p.Sleep(drainInterval)
		if c.closed {
			return
		}
		c.redeliverDue(p)
		c.drainSpill(p)
	}
}

// reemit pushes a lost step's descriptor back to the home node and
// re-enqueues it. It reports success; on failure the entry stays lost
// with its backoff clock reset.
func (c *Channel) reemit(p *sim.Proc, w *Writer, e *retEntry) bool {
	m := e.m
	if c.mach != nil && w.node != c.cfg.HomeNode {
		if !c.mach.Send(p, w.node, c.cfg.HomeNode, descriptorBytes) ||
			c.mach.Faults().DropData() {
			e.lostAt = c.eng.Now()
			return false
		}
	}
	m.Created = c.eng.Now()
	if !c.meta.TryPut(m) {
		e.lostAt = c.eng.Now()
		return false
	}
	e.state = retStaged
	e.redeliveries++
	c.stats.StepsRedelivered++
	c.stats.BytesRedelivered += m.Size
	c.tracer.Instant(m.Span, "datatap", "redeliver").
		Container(c.name).Node(w.node).Step(m.Step).
		AttrInt("attempt", int64(e.redeliveries)).End()
	return true
}

// redeliverDue re-emits lost steps older than the redeliver delay. A step
// whose writer node died is forfeited (tombstoned); one that exhausted
// its retry budget spills to disk instead of looping forever.
func (c *Channel) redeliverDue(p *sim.Proc) {
	now := c.eng.Now()
	for _, w := range c.writers {
		for _, seq := range w.sortedRetained(retLost) {
			e := w.retained[seq]
			if now-e.lostAt < redeliverDelay {
				continue
			}
			switch {
			case c.mach != nil && !c.mach.Faults().NodeUp(w.node):
				w.forfeit(e, "crash")
			case e.redeliveries >= redeliverRetries:
				// The payload keeps failing to move (long partition);
				// park it on stable storage. Redelivery-to-disk counts as
				// a redelivery so the byte ledger stays balanced.
				c.stats.StepsRedelivered++
				c.stats.BytesRedelivered += e.m.Size
				c.spillIn(p, e, "redeliver")
			default:
				c.reemit(p, w, e)
			}
		}
	}
}

// RedeliverLost immediately re-emits every lost step whose writer is
// alive, ignoring the backoff clock and retry budget — the serve path of
// the global manager's ResendReq control round. It returns how many steps
// were re-enqueued.
func (c *Channel) RedeliverLost(p *sim.Proc) int {
	if !c.alo() || c.closed {
		return 0
	}
	n := 0
	for _, w := range c.writers {
		if c.mach != nil && !c.mach.Faults().NodeUp(w.node) {
			continue
		}
		for _, seq := range w.sortedRetained(retLost) {
			if c.reemit(p, w, w.retained[seq]) {
				n++
			}
		}
	}
	return n
}

// drainSpill reinjects spilled steps, oldest first, while the queue has
// room and writer buffers accept the payload. Steps whose writer node
// died stay resident — they are durable, provenance-covered, and
// unreachable — without blocking younger steps from other writers.
func (c *Channel) drainSpill(p *sim.Proc) {
	if c.spill == nil || c.paused {
		return
	}
	burst := drainBurst
	// Detach the resident list for the pass: the disk-read sleeps below
	// yield the engine, so a writer can spillIn a NEW entry mid-pass.
	// Appends land on c.spill.resident (emptied here) and are merged back
	// after the filtered survivors — writing the filtered list over the
	// shared slice directly would silently drop the concurrent arrivals.
	pending := c.spill.resident
	c.spill.resident = nil
	kept := pending[:0]
	for i, se := range pending {
		if burst <= 0 || c.nearFull() {
			kept = append(kept, pending[i:]...)
			break
		}
		w := se.e.m.writer
		if w == nil || (c.mach != nil && !c.mach.Faults().NodeUp(w.node)) {
			kept = append(kept, se)
			continue
		}
		if !w.buf.TryAcquire(int(se.e.m.Size)) {
			kept = append(kept, se)
			continue
		}
		// Disk read back into the writer buffer, then a fresh descriptor
		// push; on failure the step stays resident.
		p.Sleep(spillTime(se.e.m.Size))
		se.e.buffered = true
		pushed := true
		if c.mach != nil && w.node != c.cfg.HomeNode {
			pushed = c.mach.Send(p, w.node, c.cfg.HomeNode, descriptorBytes) &&
				!c.mach.Faults().DropData()
		}
		if !pushed || !c.meta.TryPut(se.e.m) {
			w.releaseEntry(se.e)
			kept = append(kept, se)
			continue
		}
		se.e.state = retStaged
		se.e.m.Created = c.eng.Now()
		c.stats.StepsDrained++
		c.stats.BytesDrained += se.e.m.Size
		c.tracer.Instant(se.e.m.Span, "datatap", "drain").
			Container(c.name).Node(w.node).Step(se.e.m.Step).End()
		burst--
	}
	for i := len(kept); i < len(pending); i++ {
		pending[i] = nil
	}
	c.spill.resident = append(kept, c.spill.resident...)
}

// --- delivery snapshot ---

// DeliverySnapshot is the per-channel step ledger the chaos delivery
// oracle audits: in at-least-once mode every accepted write must be
// acked, crash-tombstoned, spill-resident, or still retained in flight.
type DeliverySnapshot struct {
	Channel          string
	Mode             DeliveryMode
	StepsWritten     int64
	StepsAcked       int64
	StepsCrashLost   int64
	StepsDuplicate   int64
	StepsRedelivered int64
	StepsSpilled     int64
	StepsDrained     int64
	Gaps             int64
	PushRetried      int64
	WriteRejected    int64
	InvalidatedLive  int64
	SpillResident    int64
	Retained         int64
	QueueLen         int
}

// Unaccounted returns the steps the ledger cannot explain (0 in a correct
// run; best-effort channels do not keep a ledger and always report 0).
func (d DeliverySnapshot) Unaccounted() int64 {
	if d.Mode != DeliveryAtLeastOnce {
		return 0
	}
	return d.StepsWritten - d.StepsAcked - d.StepsCrashLost - d.SpillResident - d.Retained
}

// DeliverySnapshot captures the channel's step ledger.
func (c *Channel) DeliverySnapshot() DeliverySnapshot {
	d := DeliverySnapshot{
		Channel:          c.name,
		Mode:             c.cfg.Delivery,
		StepsWritten:     c.stats.StepsWritten,
		StepsAcked:       c.stats.StepsAcked,
		StepsCrashLost:   c.stats.StepsCrashLost,
		StepsDuplicate:   c.stats.StepsDuplicate,
		StepsRedelivered: c.stats.StepsRedelivered,
		StepsSpilled:     c.stats.StepsSpilled,
		StepsDrained:     c.stats.StepsDrained,
		Gaps:             c.stats.Gaps,
		PushRetried:      c.stats.PushRetried,
		WriteRejected:    c.stats.WriteRejected,
		InvalidatedLive:  c.stats.InvalidatedLive,
		SpillResident:    c.SpillResidentSteps(),
		QueueLen:         c.meta.Len(),
	}
	for _, w := range c.writers {
		for _, e := range w.retained {
			if e.state != retSpilled {
				d.Retained++
			}
		}
	}
	for _, w := range c.removedWriters {
		for _, e := range w.retained {
			if e.state != retSpilled {
				d.Retained++
			}
		}
	}
	return d
}
