package evpath

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// bridge carries events from one manager's node to a stone on another
// manager, through the simulated interconnect. It is an event chain, not
// a process: a submit to an idle bridge schedules a drain step, which
// sends queued events one at a time on a pre-bound cluster.Transfer and
// resubmits each on the remote side — so bridge traffic is asynchronous
// and contends for NICs like any other data.
type bridge struct {
	owner   *Manager
	target  *Stone
	q       *sim.Queue[*Event]
	xfer    *cluster.Transfer // nil on a cost-free manager
	drainFn func()            // b.drain, bound once
	busy    bool              // a drain step is pending or an event in flight
	cur     *Event            // the event in flight, and its span
	sp      *trace.Span
	stats   BridgeStats
}

// BridgeStats reports a bridge's activity.
type BridgeStats struct {
	Sent    int64
	Bytes   int64
	Dropped int64
}

// descriptorBytes is the minimum on-wire size of any event (headers).
const descriptorBytes = 64

// NewBridge returns a stone that forwards submitted events to target,
// which lives on (possibly) another node. The backlog is unbounded; once
// the bridge is closed, later submits are dropped (and counted).
func (m *Manager) NewBridge(target *Stone) *Stone {
	b := &bridge{
		owner:  m,
		target: target,
		q:      sim.NewQueue[*Event](m.eng, 0),
	}
	b.drainFn = b.drain
	if m.machine != nil {
		b.xfer = m.machine.NewTransfer(b.transferred)
	}
	return &Stone{mgr: m, bridge: b}
}

func (b *bridge) forward(ev *Event) {
	if !b.q.TryPut(ev) {
		b.stats.Dropped++
		b.owner.tracer.Instant(ev.Span, "evpath", "drop").
			Node(b.owner.node).Attr("type", ev.Type).Attr("why", "closed").End()
		return
	}
	if !b.busy {
		b.busy = true
		b.owner.eng.At(b.owner.eng.Now(), b.drainFn)
	}
}

// drain sends queued events in order until one is in flight (its
// transfer's completion resumes the drain) or the queue is empty.
func (b *bridge) drain() {
	for {
		ev, ok := b.q.TryGet()
		if !ok {
			b.busy = false
			return
		}
		size := ev.Size + descriptorBytes
		sp := b.owner.tracer.Begin(ev.Span, "evpath", "send").
			Node(b.owner.node).Attr("type", ev.Type).
			AttrInt("bytes", size).AttrInt("dst", int64(b.target.mgr.node))
		switch {
		case b.xfer == nil:
			b.deliver(ev, sp)
		// The fault schedule may lose the message outright (lossy control
		// overlay) or the wire may fail it (dead/partitioned endpoint);
		// either way the event never reaches the target.
		case b.owner.machine.Faults().DropCtl():
			b.drop(sp, "ctl-fault")
		case !b.xfer.Start(b.owner.node, b.target.mgr.node, size):
			b.drop(sp, "wire")
		default:
			b.cur, b.sp = ev, sp
			return
		}
	}
}

// transferred completes the event in flight, then resumes the drain.
func (b *bridge) transferred(ok bool) {
	ev, sp := b.cur, b.sp
	b.cur, b.sp = nil, nil
	if ok {
		b.deliver(ev, sp)
	} else {
		b.drop(sp, "wire")
	}
	b.drain()
}

// drop counts an event lost on its way to the target and ends its span.
func (b *bridge) drop(sp *trace.Span, why string) {
	b.stats.Dropped++
	sp.Attr("drop", why).End()
}

// deliver accounts a completed transfer and hands the event to the target.
func (b *bridge) deliver(ev *Event, sp *trace.Span) {
	b.stats.Sent++
	b.stats.Bytes += ev.Size + descriptorBytes
	// Restamp so the receive side chains from the transfer, not the
	// original submitter: hop-by-hop causality survives multi-bridge
	// overlays.
	if sp != nil {
		ev.Span = sp.ID()
	}
	sp.End()
	b.target.Submit(ev)
}

// CloseBridge closes a bridge stone: the backlog still drains, and later
// submits are dropped. Calling it on a non-bridge stone is a no-op.
func (s *Stone) CloseBridge() {
	if s.bridge != nil {
		s.bridge.q.Close()
	}
}

// BridgeStats returns the bridge counters (zero value for non-bridges).
func (s *Stone) BridgeStats() BridgeStats {
	if s.bridge == nil {
		return BridgeStats{}
	}
	return s.bridge.stats
}

// Mailbox is a handler stone plus a queue, the usual way a simulated
// process receives events from an overlay: remote stones bridge into the
// mailbox's stone, and the owning process blocks on Recv.
type Mailbox struct {
	Stone *Stone
	q     *sim.Queue[*Event]
}

// NewMailbox returns an unbounded mailbox on m. Events that arrive after
// Close are dropped.
func NewMailbox(m *Manager) *Mailbox {
	q := sim.NewQueue[*Event](m.eng, 0)
	return &Mailbox{Stone: m.NewStone(func(ev *Event) { q.TryPut(ev) }), q: q}
}

// Recv blocks until an event arrives; ok is false if the mailbox closed.
func (mb *Mailbox) Recv(p *sim.Proc) (*Event, bool) {
	return mb.q.Get(p)
}

// RecvTimeout is Recv with a deadline.
func (mb *Mailbox) RecvTimeout(p *sim.Proc, d sim.Time) (*Event, bool) {
	return mb.q.GetTimeout(p, d)
}

// Close closes the mailbox queue.
func (mb *Mailbox) Close() { mb.q.Close() }

// Closed reports whether Close has been called.
func (mb *Mailbox) Closed() bool { return mb.q.Closed() }
