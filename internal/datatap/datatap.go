// Package datatap implements the asynchronous staged data transport the
// paper's containers move data with (DataTap/DataStager): a writer buffers
// its output locally, pushes a small metadata descriptor to the consuming
// side, and the reader *pulls* the payload with an RDMA get when it is
// ready — so output proceeds asynchronously and pulls can be scheduled to
// limit interconnect contention.
//
// The behaviours the paper's evaluation leans on are modeled faithfully:
//
//   - writers can be *paused* (and later resumed) so a downstream
//     container can resize without losing timesteps — waiting for writers
//     to pause is the dominant cost of the 'decrease' operation (Fig. 5);
//   - the reader-side metadata queue is bounded; a full queue blocks
//     writers and hence the application, which is exactly the condition
//     container management works to avoid (Fig. 9);
//   - writer buffers are finite, so an unconsumed backlog eventually
//     blocks the writer.
package datatap

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Meta is the descriptor pushed from writer to reader; the payload itself
// stays in the writer's buffer until pulled.
type Meta struct {
	// Step is the application timestep this payload belongs to.
	Step int64
	// Size is the payload size in bytes.
	Size int64
	// SrcNode is the writer's node (the RDMA get target).
	SrcNode int
	// Created is when the writer made the payload available.
	Created sim.Time
	// Data is the payload (carried by reference; the simulated transfer
	// cost is charged from Size).
	Data any
	// Span is the trace context riding the descriptor across the hop: the
	// write span that produced it, replaced by the pull span once fetched,
	// so downstream spans chain to their true upstream cause.
	Span trace.SpanID
	// Seq is the writer-assigned step sequence (monotonic from 1 per
	// writer; 0 = unsequenced, e.g. hand-built test descriptors). In
	// at-least-once mode readers dedupe replays by (writer, Seq).
	Seq int64
	// writer is the producing endpoint, set so the at-least-once paths
	// (ack, dedupe, redelivery) can reach the retained-step ledger, and
	// so releaseBuf can return buffer space without a per-write closure.
	writer *Writer
	// released marks the writer-side buffer space as already returned
	// (or never owned by this descriptor, e.g. the at-least-once ledger
	// manages it instead).
	released bool
}

// releaseBuf frees the writer-side buffer space backing this descriptor.
// Idempotent; a no-op for descriptors without a writer (hand-built test
// metas) or whose space is managed elsewhere.
func (m *Meta) releaseBuf() {
	if m.released || m.writer == nil {
		return
	}
	m.released = true
	m.writer.buf.Release(int(m.Size))
}

// Stats aggregates channel activity.
type Stats struct {
	StepsWritten int64
	StepsPulled  int64
	// BytesWritten accumulates the payload bytes of every successful
	// write. Together with BytesPulled, BytesInvalidated, and
	// Channel.QueuedBytes it forms the chunk-conservation invariant the
	// chaos oracles check: every byte written is pulled, invalidated, or
	// still queued — never silently lost.
	BytesWritten int64
	BytesPulled  int64
	// BytesInvalidated accumulates the payload bytes of invalidated
	// descriptors (failed pulls plus InvalidateNode purges).
	BytesInvalidated int64
	MaxQueue         int
	// WriterBlocked accumulates total virtual time writers spent blocked
	// on a full queue or full buffer — the "application blocking" metric.
	// It includes transfer costs (buffer copy, descriptor push), so it is
	// nonzero even on a healthy run.
	WriterBlocked sim.Time
	// WriterStalled accumulates only the *parked* portion of writer time:
	// pause-window waits, buffer-space waits, full-queue waits, and
	// descriptor-push retry backoff. Unlike WriterBlocked it excludes
	// modeled transfer costs, so a healthy run reports exactly zero — the
	// "simulation never blocks" SLA the subscriber fan-out must preserve.
	WriterStalled sim.Time
	// Requeued counts descriptors returned to the queue by Requeue;
	// RequeuedPaused counts the subset that landed while the channel was
	// paused (they re-enter the queue — the pause handshake only stops
	// *writers* — but the accounting must see them, not lose them).
	Requeued       int64
	RequeuedPaused int64
	// PauseWait accumulates time spent waiting for writers to pause.
	PauseWait sim.Time
	// Invalidated counts descriptors whose payload could not be pulled
	// (writer node crashed before the reader got to it) plus descriptors
	// purged by InvalidateNode.
	Invalidated int64
	// InvalidatedLive counts failed pulls whose writer node was still
	// alive (a partition, not a crash) — recoverable data that best-effort
	// mode nonetheless loses.
	InvalidatedLive int64
	// WriteRejected counts writes that failed for a reason other than a
	// closed channel (a lost descriptor push) — the silent-drop case
	// at-least-once mode eliminates.
	WriteRejected int64

	// The remaining counters are live only in at-least-once mode.
	//
	// StepsAcked counts downstream processing acknowledgements;
	// StepsCrashLost counts retained steps forfeited (tombstoned) because
	// their payload died with its node; StepsDuplicate counts replayed
	// descriptors filtered by the reader-side dedupe; Gaps counts missing
	// sequences detected on writers' step streams; PushRetried counts
	// descriptor-push retry attempts.
	StepsAcked     int64
	StepsCrashLost int64
	BytesCrashLost int64
	StepsDuplicate int64
	Gaps           int64
	PushRetried    int64
	// StepsRedelivered / BytesRedelivered count re-emissions of
	// previously-lost steps, into the queue or (on retry exhaustion) into
	// the spill store. In the extended conservation invariant they join
	// BytesWritten on the inflow side: BytesWritten + BytesRedelivered =
	// BytesPulled + BytesInvalidated + QueuedBytes + SpillResidentBytes.
	StepsRedelivered int64
	BytesRedelivered int64
	// StepsSpilled / BytesSpilled count payloads moved to the spill store
	// (cumulative); StepsDrained / BytesDrained count reinjections.
	StepsSpilled int64
	BytesSpilled int64
	StepsDrained int64
	BytesDrained int64
}

// Config parameterizes a channel.
type Config struct {
	// QueueCap bounds the reader-side metadata queue (0 = unbounded).
	QueueCap int
	// WriterBufBytes bounds each writer's payload buffer (0 = unbounded).
	WriterBufBytes int64
	// HomeNode is where the metadata queue lives (a reader-side node);
	// descriptor pushes are charged as messages to this node.
	HomeNode int
	// PullTokens bounds how many payload pulls may be in flight at once
	// (0 = unlimited). This is DataStager's pull scheduling: limiting
	// concurrent gets keeps the readers from saturating the writers'
	// NICs and slowing the application's own output, at the price of
	// serializing reader-side transfers.
	PullTokens int
	// PullSpacing adds a minimum gap between pull starts (0 = none),
	// smoothing bursts off the interconnect.
	PullSpacing sim.Time
	// Delivery selects the loss semantics (zero value = best-effort, the
	// legacy at-most-once transport).
	Delivery DeliveryMode
}

// descriptorBytes is the on-wire size of a metadata push.
const descriptorBytes = 128

// Channel is one staged transport hop between pipeline stages: any number
// of writers feed a shared metadata queue drained by any number of
// readers.
type Channel struct {
	name    string
	eng     *sim.Engine
	mach    *cluster.Machine
	cfg     Config
	meta    *sim.Queue[*Meta]
	writers []*Writer
	paused  bool
	resume  *sim.Event
	stats   Stats
	closed  bool
	// pullTokens (non-nil when scheduling is on) bounds concurrent
	// pulls; lastPullAt enforces the configured spacing.
	pullTokens *sim.Resource
	lastPullAt sim.Time
	tracer     *trace.Recorder
	// overflowReason / gapReason are the flight-recorder trigger labels,
	// precomputed so the hot write/fetch paths don't concatenate per event.
	overflowReason string
	gapReason      string

	// At-least-once state: the spill store, the repair process flag, and
	// writers detached with steps still retained (kept so the ledger stays
	// whole).
	spill          *spillStore
	repairOn       bool
	removedWriters []*Writer

	// hub, when attached, fans every accepted write out to streaming
	// subscribers (nil on channels without subscribers; every call site is
	// nil-safe).
	hub *SubHub
}

// NewChannel creates a channel. mach may be nil for cost-free tests.
func NewChannel(eng *sim.Engine, mach *cluster.Machine, name string, cfg Config) *Channel {
	c := &Channel{
		name: name,
		eng:  eng,
		mach: mach,
		cfg:  cfg,
		meta: sim.NewQueue[*Meta](eng, cfg.QueueCap),

		overflowReason: "overflow:" + name,
		gapReason:      "gap:" + name,
	}
	if cfg.PullTokens > 0 {
		c.pullTokens = sim.NewResource(eng, cfg.PullTokens)
	}
	return c
}

// Name returns the channel's name.
func (c *Channel) Name() string { return c.name }

// SetTracer attaches a trace recorder: writes, pulls, and pause rounds
// become spans; requeues and invalidations become instants; a writer
// blocking on a full metadata queue fires the flight-recorder trigger.
func (c *Channel) SetTracer(r *trace.Recorder) { c.tracer = r }

// QueueLen returns the current metadata backlog.
func (c *Channel) QueueLen() int { return c.meta.Len() }

// QueuedBytes returns the payload bytes referenced by descriptors still
// in the metadata queue — the in-flight term of the chunk-conservation
// invariant (BytesWritten = BytesPulled + BytesInvalidated + QueuedBytes).
func (c *Channel) QueuedBytes() int64 {
	var n int64
	c.meta.Each(func(m *Meta) { n += m.Size })
	return n
}

// HomeNode returns the node hosting the metadata queue (the reader side);
// subscriber hubs live there too.
func (c *Channel) HomeNode() int { return c.cfg.HomeNode }

// Full reports whether the metadata queue is at capacity (a Put would
// block). Lossy observers check this to drop rather than stall.
func (c *Channel) Full() bool {
	return c.cfg.QueueCap > 0 && c.meta.Len() >= c.cfg.QueueCap
}

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// Writers returns the attached writer endpoints (shared slice; do not
// mutate). Resize protocols use it to enumerate the upstream endpoints a
// new replica must exchange metadata with.
func (c *Channel) Writers() []*Writer { return c.writers }

// HeadAge returns how long the oldest queued descriptor has been waiting
// (0 if the queue is empty) — the queue-pressure signal container
// monitoring heartbeats report while a slow component is still computing.
func (c *Channel) HeadAge(now sim.Time) sim.Time {
	m, ok := c.meta.Peek()
	if !ok {
		return 0
	}
	return now - m.Created
}

// Requeue returns a previously fetched descriptor to the queue (used when
// an MPI-style teardown aborts an in-flight step so it is not lost). The
// payload's buffer space was already released; the descriptor re-enters
// the shared queue for another replica to process.
func (c *Channel) Requeue(m *Meta) bool {
	if c.closed {
		return false
	}
	m.released = true // buffer space went back when the step was pulled
	c.tracer.Instant(m.Span, "datatap", "requeue").
		Container(c.name).Step(m.Step).End()
	if !c.meta.TryPut(m) {
		// The queue refused the descriptor (full): the step stays
		// accounted as pulled — the caller drops it — so the pulled
		// counters must NOT be rolled back, or the channel's byte
		// accounting would claim the payload is still in flight.
		// At-least-once recovers the step anyway: marked lost, it is
		// re-emitted by the repair loop once the queue has room.
		if c.alo() && m.writer != nil {
			if e := m.writer.retained[m.Seq]; e != nil && e.state == retPulled {
				c.markLost(e)
			}
		}
		return false
	}
	c.stats.StepsPulled--
	c.stats.BytesPulled -= m.Size
	c.stats.Requeued++
	// A requeue is a queue *insertion*: it must participate in the same
	// high-water accounting as Write, or a pause window full of requeues
	// reports a stale MaxQueue and the overflow trigger never fires.
	if l := c.meta.Len(); l > c.stats.MaxQueue {
		c.stats.MaxQueue = l
	}
	if c.paused {
		// Pause stops writers, not requeues — an aborted in-flight step may
		// legitimately land mid-pause so it is not lost. Count it so the
		// pause accounting sees the insertion instead of silently absorbing
		// it.
		c.stats.RequeuedPaused++
		if c.Full() {
			c.tracer.Trigger(c.overflowReason)
		}
	}
	if c.alo() && m.writer != nil {
		// The descriptor is claimable again; without this the next fetch
		// would filter it as an in-flight duplicate.
		if e := m.writer.retained[m.Seq]; e != nil && e.state == retPulled {
			e.state = retStaged
		}
	}
	return true
}

// Close closes the metadata queue; readers drain and then see ok=false.
// Writers blocked on buffer space are released (their writes fail), so no
// process stays parked behind a closed channel.
func (c *Channel) Close() {
	c.closed = true
	c.meta.Close()
	c.hub.Close()
	for _, w := range c.writers {
		// Wake any Acquire waiter; the subsequent Put fails cleanly.
		w.buf.Grow(1 << 61)
	}
	if c.paused {
		c.Resume()
	}
}

// Closed reports whether Close has been called.
func (c *Channel) Closed() bool { return c.closed }

// Writer is one producer endpoint (one upstream replica or simulation
// aggregation point).
type Writer struct {
	ch   *Channel
	node int
	buf  *sim.Resource // buffer bytes
	// busy / wantPause implement the pause handshake: a pause issued
	// mid-write completes when the write finishes.
	busy      bool
	idle      *sim.Event
	nWrites   int64
	nBlocked  sim.Time
	pausedEvs int64

	// At-least-once state: the monotonic step sequence, the retained
	// (written-but-unacked) ledger, the applied-set dedupe watermark, and
	// the reader-side next-expected sequence for gap detection.
	nextSeq      int64
	retained     map[int64]*retEntry
	applied      map[int64]bool
	appliedFloor int64
	expect       int64
}

// NewWriter attaches a writer on the given node.
func (c *Channel) NewWriter(node int) *Writer {
	bufCap := int(c.cfg.WriterBufBytes)
	if c.cfg.WriterBufBytes == 0 {
		bufCap = 1 << 62
	}
	w := &Writer{ch: c, node: node, buf: sim.NewResource(c.eng, bufCap), expect: 1,
		retained: make(map[int64]*retEntry)}
	c.writers = append(c.writers, w)
	return w
}

// Node returns the writer's node ID.
func (w *Writer) Node() int { return w.node }

// Write makes one timestep's payload available: it buffers the payload,
// pushes the descriptor to the channel's home node, and returns. It blocks
// if the writer is paused, its buffer is full, or the metadata queue is
// full — blocking here is precisely the "application blocking on I/O" the
// containers runtime manages against. It returns false if the channel was
// closed.
func (w *Writer) Write(p *sim.Proc, step int64, size int64, data any) bool {
	return w.WriteTraced(p, step, size, data, 0)
}

// WriteTraced is Write with an explicit causal parent for the write span.
// The parent must be passed in (not stamped on the Meta afterwards): a
// blocked Put can hand the descriptor to a reader before the writer
// resumes, so the Meta must be fully formed before it enters the queue.
func (w *Writer) WriteTraced(p *sim.Proc, step int64, size int64, data any, parent trace.SpanID) bool {
	if w.ch.closed {
		return false
	}
	if w.ch.alo() {
		return w.writeALO(p, step, size, data, parent)
	}
	sp := w.ch.tracer.Begin(parent, "datatap", "write").
		Container(w.ch.name).Node(w.node).Step(step).AttrInt("bytes", size)
	start := w.ch.eng.Now()
	for w.ch.paused {
		w.pausedEvs++
		sp.Attr("paused", "1")
		w.ch.resume.Wait(p)
	}
	w.ch.stats.WriterStalled += w.ch.eng.Now() - start
	w.busy = true
	// Reserve buffer space (may block on backlog).
	bufWait := w.ch.eng.Now()
	w.buf.Acquire(p, int(size))
	w.ch.stats.WriterStalled += w.ch.eng.Now() - bufWait
	// Local buffer copy at memory bandwidth (10x NIC rate approximation).
	if w.ch.mach != nil {
		w.ch.mach.Send(p, w.node, w.node, size)
	}
	m := &Meta{
		Step:    step,
		Size:    size,
		SrcNode: w.node,
		Created: w.ch.eng.Now(),
		Data:    data,
		Span:    sp.ID(),
		writer:  w,
	}
	// Push the descriptor to the queue's home node. A push lost to a fault
	// (dead endpoint, partition) fails the write: the payload never becomes
	// visible downstream.
	if w.ch.mach != nil && w.node != w.ch.cfg.HomeNode {
		if !w.ch.mach.Send(p, w.node, w.ch.cfg.HomeNode, descriptorBytes) ||
			w.ch.mach.Faults().DropData() {
			m.releaseBuf()
			w.finishWrite(start)
			w.ch.stats.WriteRejected++
			sp.Attr("fail", "push").End()
			return false
		}
	}
	if w.ch.Full() {
		// The paper's Fig. 9 condition: a full metadata queue is about to
		// block the application. Preserve the lead-up in the flight ring.
		w.ch.tracer.Trigger(w.ch.overflowReason)
	}
	putWait := w.ch.eng.Now()
	ok := w.ch.meta.Put(p, m)
	w.ch.stats.WriterStalled += w.ch.eng.Now() - putWait
	if !ok {
		m.releaseBuf()
		w.finishWrite(start)
		sp.Attr("fail", "closed").End()
		return false
	}
	w.ch.stats.StepsWritten++
	w.ch.stats.BytesWritten += size
	if l := w.ch.meta.Len(); l > w.ch.stats.MaxQueue {
		w.ch.stats.MaxQueue = l
	}
	w.ch.hub.Publish(m)
	w.finishWrite(start)
	sp.End()
	return true
}

func (w *Writer) finishWrite(start sim.Time) {
	w.nWrites++
	blocked := w.ch.eng.Now() - start
	w.nBlocked += blocked
	w.ch.stats.WriterBlocked += blocked
	w.busy = false
	if w.idle != nil {
		w.idle.Fire()
		w.idle = nil
	}
}

// Reader is one consumer endpoint (one downstream replica).
type Reader struct {
	ch   *Channel
	node int
}

// NewReader attaches a reader on the given node.
func (c *Channel) NewReader(node int) *Reader {
	return &Reader{ch: c, node: node}
}

// Fetch takes the next available descriptor and pulls its payload
// (RDMA get from the writer's buffer), blocking until data arrives.
// ok is false once the channel is closed and drained. A descriptor whose
// writer node died before the pull is invalidated and skipped — the reader
// moves on to the next descriptor instead of fetching a dead buffer
// forever.
func (r *Reader) Fetch(p *sim.Proc) (*Meta, bool) {
	for {
		m, ok := r.ch.meta.Get(p)
		if !ok {
			return nil, false
		}
		if r.pull(p, m) && r.admit(p, m) {
			return m, true
		}
	}
}

// FetchPoll is Fetch with a deadline d for the descriptor wait, in the
// polling form of [sim.Queue.GetPoll]. The deadline covers the whole
// attempt: descriptors invalidated by a dead writer consume budget but do
// not restart it. When the deadline passes on an open, empty channel and
// keep (if non-nil) holds, the descriptor wait re-arms for another d
// without resuming p, exactly as if p had timed out, checked keep and
// called FetchPoll(p, d, keep) again. A retry after an invalidated
// descriptor keeps to the deadline in force, re-armed or not. keep runs
// in the event loop and must not block. With a nil keep it is a plain
// timed fetch.
func (r *Reader) FetchPoll(p *sim.Proc, d sim.Time, keep func() bool) (*Meta, bool) {
	deadline := r.ch.eng.Now() + d
	for {
		m, ok, at := r.ch.meta.GetPoll(p, deadline, d, keep)
		if !ok {
			return nil, false
		}
		deadline = at
		if r.pull(p, m) && r.admit(p, m) {
			return m, true
		}
		if r.ch.eng.Now() >= deadline {
			return nil, false
		}
	}
}

// pull transfers m's payload; it reports false when the writer's node is
// dead or partitioned and the payload is unreachable (the descriptor is
// counted invalidated and its buffer reservation dropped).
func (r *Reader) pull(p *sim.Proc, m *Meta) bool {
	sp := r.ch.tracer.Begin(m.Span, "datatap", "pull").
		Container(r.ch.name).Node(r.node).Step(m.Step).
		AttrInt("bytes", m.Size).AttrInt("src", int64(m.SrcNode))
	// Downstream work chains from the pull, not the original write.
	if sp != nil {
		m.Span = sp.ID()
	}
	if r.ch.pullTokens != nil {
		r.ch.pullTokens.Acquire(p, 1)
		if gap := r.ch.cfg.PullSpacing; gap > 0 {
			if wait := r.ch.lastPullAt + gap - r.ch.eng.Now(); wait > 0 {
				p.Sleep(wait)
			}
			r.ch.lastPullAt = r.ch.eng.Now()
		}
	}
	ok := true
	if r.ch.mach != nil {
		ok = r.ch.mach.RDMAGet(p, r.node, m.SrcNode, m.Size)
	}
	if r.ch.pullTokens != nil {
		r.ch.pullTokens.Release(1)
	}
	// In at-least-once mode the writer retains the payload until the
	// processing ack; in best-effort mode a pull (successful or not) is
	// the last the writer hears of the step, so the buffer frees here.
	if !r.ch.alo() {
		m.releaseBuf()
	}
	if !ok {
		r.ch.stats.Invalidated++
		r.ch.stats.BytesInvalidated += m.Size
		if r.ch.mach != nil && r.ch.mach.Faults().NodeUp(m.SrcNode) {
			r.ch.stats.InvalidatedLive++
		}
		if r.ch.alo() && m.writer != nil {
			// The step is not gone: mark it lost so the repair loop
			// re-emits it, and surface the gap.
			if e := m.writer.retained[m.Seq]; e != nil && e.state == retStaged {
				r.ch.markLost(e)
			}
			r.ch.tracer.Trigger(r.ch.gapReason)
		}
		sp.Attr("fail", "invalidated").End()
		return false
	}
	r.ch.stats.StepsPulled++
	r.ch.stats.BytesPulled += m.Size
	sp.End()
	return true
}

// InvalidateNode purges queued descriptors whose payload lives on the given
// (crashed) node, returning how many were dropped. Readers never see them;
// without this, each parked descriptor costs a reader one failed pull.
func (c *Channel) InvalidateNode(node int) int {
	var bytes int64
	n := c.meta.RemoveWhere(func(m *Meta) bool {
		if m.SrcNode != node {
			return false
		}
		m.releaseBuf()
		bytes += m.Size
		return true
	})
	c.stats.Invalidated += int64(n)
	c.stats.BytesInvalidated += bytes
	if c.alo() {
		// Retained payloads living on the crashed node are gone with it:
		// tombstone them so the loss is explicit. Pulled steps survive
		// (their data already crossed to a reader and will be acked), and
		// spilled steps survive on stable storage.
		for _, w := range c.writers {
			if w.node == node {
				w.forfeitAll("crash")
			}
		}
		for _, w := range c.removedWriters {
			if w.node == node {
				w.forfeitAll("crash")
			}
		}
	}
	if n > 0 {
		c.tracer.Instant(0, "datatap", "invalidate").
			Container(c.name).Node(node).AttrInt("descriptors", int64(n)).End()
	}
	return n
}

// RemoveWriter detaches a (dead) writer endpoint: pause rounds and metadata
// exchanges stop addressing it, and anything parked on its buffer is
// released. Removing a writer that is not attached is a no-op.
func (c *Channel) RemoveWriter(w *Writer) {
	for i, x := range c.writers {
		if x == w {
			c.writers = append(c.writers[:i], c.writers[i+1:]...)
			if c.alo() {
				// Keep the endpoint reachable for the step ledger: its
				// pulled steps still get acked, and a crash handler that
				// runs after detachment can still tombstone the rest.
				c.removedWriters = append(c.removedWriters, w)
			}
			break
		}
	}
	if c.alo() && c.mach != nil && !c.mach.Faults().NodeUp(w.node) {
		w.forfeitAll("removed")
	}
	w.buf.Grow(1 << 61)
	if w.idle != nil {
		w.idle.Fire()
		w.idle = nil
	}
}

// Pause asks every writer to stop producing and waits until all in-flight
// writes finish — the consistency step the 'decrease' protocol requires so
// no timestep is lost while downstream replicas are removed. It returns
// the time spent waiting.
func (c *Channel) Pause(p *sim.Proc) sim.Time {
	sp := c.tracer.Begin(0, "datatap", "pause").
		Container(c.name).Node(c.cfg.HomeNode).AttrInt("writers", int64(len(c.writers)))
	start := c.eng.Now()
	if !c.paused {
		c.paused = true
		c.resume = sim.NewEvent(c.eng)
	}
	for _, w := range c.writers {
		// One control message per writer.
		if c.mach != nil && w.node != c.cfg.HomeNode {
			c.mach.Send(p, c.cfg.HomeNode, w.node, descriptorBytes)
		}
		if w.busy {
			if w.idle == nil {
				w.idle = sim.NewEvent(c.eng)
			}
			w.idle.Wait(p)
		}
	}
	wait := c.eng.Now() - start
	c.stats.PauseWait += wait
	sp.End()
	return wait
}

// Resume releases paused writers.
func (c *Channel) Resume() {
	if !c.paused {
		return
	}
	c.paused = false
	c.resume.Fire()
}

// String implements fmt.Stringer.
func (c *Channel) String() string {
	return fmt.Sprintf("datatap(%s q=%d/%d)", c.name, c.meta.Len(), c.cfg.QueueCap)
}
