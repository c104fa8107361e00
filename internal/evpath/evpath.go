// Package evpath is a small event-path overlay library in the spirit of
// the EVPath system the paper builds on, cut to what the container
// runtime uses: bridge stones that carry typed events between nodes of
// the simulated machine, delivering into handler stones or mailboxes on
// the far side.
//
// The runtime uses evpath for two things, exactly as the paper does: the
// control message rounds of the increase/decrease/offline protocols, and
// the monitoring overlays that feed the managers.
package evpath

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Event is one unit of data flowing through an overlay.
type Event struct {
	// Type names the event's schema ("latency_sample", "ctl_increase",
	// atomic data, ...). Handlers may dispatch on it.
	Type string
	// Size is the encoded size in bytes, used to cost bridge transfers.
	// Zero-size events are charged a minimum descriptor size.
	Size int64
	// Data is the payload.
	Data any
	// Span is the causal trace context (0 = none).
	Span trace.SpanID
}

// Manager is the per-process event context (EVPath's CManager): it owns
// stones. Handlers run inline and take no virtual time; only bridges cost
// time, on the wire. A Manager is pinned to a machine node so bridge
// traffic is charged to the right NICs; a nil machine gives a cost-free
// in-process overlay (useful in unit tests).
type Manager struct {
	eng     *sim.Engine
	machine *cluster.Machine
	node    int
	tracer  *trace.Recorder
}

// NewManager returns a Manager on the given machine node. machine may be
// nil for cost-free local overlays.
func NewManager(eng *sim.Engine, machine *cluster.Machine, node int) *Manager {
	return &Manager{eng: eng, machine: machine, node: node}
}

// Node returns the machine node this manager runs on.
func (m *Manager) Node() int { return m.node }

// SetTracer attaches a trace recorder: bridge transfers become spans
// (chained to the submitter's context via Event.Span) and drops become
// instants. A nil recorder disables tracing at no cost.
func (m *Manager) SetTracer(r *trace.Recorder) { m.tracer = r }

// Stone is one delivery point of an overlay: either a handler that
// consumes each submitted event inline, or a bridge that carries it to a
// stone on another node.
type Stone struct {
	mgr     *Manager
	handler func(*Event)
	bridge  *bridge
}

// NewStone returns a stone that runs handler, which must not be nil, on
// every submitted event.
func (m *Manager) NewStone(handler func(*Event)) *Stone {
	return &Stone{mgr: m, handler: handler}
}

// Submit injects an event at stone s. A handler stone runs its handler
// inline; a bridge stone queues the event for an asynchronous network
// transfer. Submit never parks, so any process or engine callback may
// call it.
func (s *Stone) Submit(ev *Event) {
	if s.bridge != nil {
		s.bridge.forward(ev)
		return
	}
	s.handler(ev)
}
