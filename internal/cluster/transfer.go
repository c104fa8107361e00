package cluster

import "repro/internal/sim"

// Transfer is a reusable, event-driven Send for callers that have no
// process to block. Start walks Send's phases — tx grant, wire time, tx
// release, latency, the receiver check, rx grant, wire time, accounting
// — and then calls done. Each phase schedules one engine event at the
// instant the blocking Send would wake, and a port that is free grants at
// once without an event, as Acquire does; so a Transfer and a Send
// started at the same instant advance the clock, the NIC queues and the
// statistics identically. Every phase runs the one step function bound
// at construction, so a transfer allocates nothing.
type Transfer struct {
	m        *Machine
	done     func(ok bool)
	stepFn   func() // t.step, bound once
	phase    xferPhase
	from, to int
	size     int64
	start    sim.Time
}

// xferPhase names what a transfer's next step completes.
type xferPhase uint8

const (
	xferIdle    xferPhase = iota
	xferIntra             // the intra-node copy time
	xferTxGrant           // the wait for the sender's tx port
	xferTxSent            // the wire time on the tx port
	xferArrived           // the wire latency
	xferRxGrant           // the wait for the receiver's rx port
	xferRxDone            // the wire time on the rx port
)

// NewTransfer returns an idle transfer that reports each completion to
// done: true once the message is delivered, false when it was lost at
// the wire to a dead or partitioned receiver.
func (m *Machine) NewTransfer(done func(ok bool)) *Transfer {
	t := &Transfer{m: m, done: done}
	t.stepFn = t.step
	return t
}

// Start sends size bytes from node from to node to. It reports false,
// without calling done, when the sender is dead (Send's immediate
// failure); otherwise done runs from a later event. A transfer carries
// one message at a time: starting one in flight panics.
func (t *Transfer) Start(from, to int, size int64) bool {
	if t.phase != xferIdle {
		panic("cluster: Transfer started while in flight")
	}
	m := t.m
	if !m.senderUp(from) {
		return false
	}
	t.from, t.to, t.size, t.start = from, to, size, m.eng.Now()
	if from == to {
		t.phase = xferIntra
		m.eng.At(t.start+m.transferTime(size)/10, t.stepFn)
		return true
	}
	t.phase = xferTxGrant
	if m.nodes[from].tx.AcquireThen(1, t.stepFn) {
		t.step()
	}
	return true
}

// step completes the phase the transfer is in and starts the next.
func (t *Transfer) step() {
	m := t.m
	now := m.eng.Now()
	switch t.phase {
	case xferIntra:
		m.account(t.size, now-t.start)
		t.finish(true)
	case xferTxGrant:
		t.phase = xferTxSent
		m.eng.At(now+m.transferTime(t.size), t.stepFn)
	case xferTxSent:
		m.nodes[t.from].tx.Release(1)
		t.phase = xferArrived
		m.eng.At(now+m.latencyBetween(t.from, t.to), t.stepFn)
	case xferArrived:
		if !m.arrives(t.from, t.to, t.size, t.start) {
			t.finish(false)
			return
		}
		t.phase = xferRxGrant
		if m.nodes[t.to].rx.AcquireThen(1, t.stepFn) {
			t.step()
		}
	case xferRxGrant:
		t.phase = xferRxDone
		m.eng.At(now+m.transferTime(t.size), t.stepFn)
	case xferRxDone:
		m.nodes[t.to].rx.Release(1)
		m.account(t.size, now-t.start)
		t.finish(true)
	}
}

// finish returns the transfer to idle before reporting, so done may start
// the next message at once.
func (t *Transfer) finish(ok bool) {
	t.phase = xferIdle
	t.done(ok)
}
