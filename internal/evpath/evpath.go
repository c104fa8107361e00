// Package evpath is a small event-path overlay library in the spirit of
// the EVPath system the paper builds on: typed events flow through graphs
// of "stones" (processing points) that filter, transform, split, and
// deliver them, with bridge stones carrying events between nodes of the
// simulated machine.
//
// The container runtime uses evpath for two things, exactly as the paper
// does: the control message rounds of the increase/decrease/offline
// protocols, and the monitoring overlays that feed the managers.
package evpath

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Event is one unit of data flowing through an overlay.
type Event struct {
	// Type names the event's schema ("latency_sample", "ctl_increase",
	// atomic data, ...). Filters and terminals may dispatch on it.
	Type string
	// Src is the stone that originally submitted the event.
	Src StoneID
	// Submitted is the virtual time of original submission.
	Submitted sim.Time
	// Size is the encoded size in bytes, used to cost bridge transfers.
	// Zero-size events are charged a minimum descriptor size.
	Size int64
	// Data is the payload.
	Data any
	// Span is the causal trace context (0 = none).
	Span trace.SpanID
}

// StoneID identifies a stone within its Manager.
type StoneID int

// Manager is the per-process event context (EVPath's CManager): it owns
// stones and executes their actions. Actions run inline and take no
// virtual time; only bridges cost time, on the wire. A Manager is pinned
// to a machine node so bridge traffic is charged to the right NICs; a nil
// machine gives a cost-free in-process overlay (useful in unit tests).
type Manager struct {
	eng       *sim.Engine
	machine   *cluster.Machine
	node      int
	nextID    StoneID
	stones    map[StoneID]*Stone
	delivered int64
	tracer    *trace.Recorder
}

// NewManager returns a Manager on the given machine node. machine may be
// nil for cost-free local overlays.
func NewManager(eng *sim.Engine, machine *cluster.Machine, node int) *Manager {
	return &Manager{
		eng:     eng,
		machine: machine,
		node:    node,
		stones:  make(map[StoneID]*Stone),
	}
}

// Engine returns the simulation engine.
func (m *Manager) Engine() *sim.Engine { return m.eng }

// Node returns the machine node this manager runs on.
func (m *Manager) Node() int { return m.node }

// SetTracer attaches a trace recorder: bridge transfers become spans
// (chained to the submitter's context via Event.Span) and drops become
// instants. A nil recorder disables tracing at no cost.
func (m *Manager) SetTracer(r *trace.Recorder) { m.tracer = r }

// Delivered returns the count of events that reached terminal stones.
func (m *Manager) Delivered() int64 { return m.delivered }

// Action processes one event and may emit zero or more events downstream.
type Action interface {
	Handle(ev *Event, emit func(*Event))
}

// ActionFunc adapts a function to the Action interface.
type ActionFunc func(ev *Event, emit func(*Event))

// Handle implements Action.
func (f ActionFunc) Handle(ev *Event, emit func(*Event)) { f(ev, emit) }

// Stone is one processing point in an overlay.
type Stone struct {
	id      StoneID
	mgr     *Manager
	action  Action
	targets []*Stone
	// bridge, when non-nil, forwards events to a stone on another node.
	bridge *bridge
	// emit is the action callback, built once so handle doesn't allocate
	// a capturing closure per event; it appends into pending.
	emit    func(*Event)
	pending []*Event
	spare   []*Event // recycled pending backing for reentrant handles
}

// ID returns the stone's identifier.
func (s *Stone) ID() StoneID { return s.id }

// Manager returns the owning manager.
func (s *Stone) Manager() *Manager { return s.mgr }

// NewStone creates a stone with the given action (nil passes events
// through unchanged).
func (m *Manager) NewStone(action Action) *Stone {
	m.nextID++
	s := &Stone{id: m.nextID, mgr: m, action: action}
	s.emit = func(out *Event) { s.pending = append(s.pending, out) }
	m.stones[s.id] = s
	return s
}

// Link adds target as a downstream stone. Events emitted by s's action are
// delivered to every linked target, in link order.
func (s *Stone) Link(target *Stone) *Stone {
	s.targets = append(s.targets, target)
	return s
}

// Unlink removes target from s's downstream set.
func (s *Stone) Unlink(target *Stone) {
	for i, t := range s.targets {
		if t == target {
			s.targets = append(s.targets[:i], s.targets[i+1:]...)
			return
		}
	}
}

// Targets returns the current downstream stones.
func (s *Stone) Targets() []*Stone { return s.targets }

// Submit injects an event at stone s. Local stone chains execute inline;
// bridge stones queue the event for an asynchronous network transfer.
// Submit never parks, so any process or engine callback may call it.
func (s *Stone) Submit(ev *Event) {
	if ev.Submitted == 0 {
		ev.Submitted = s.mgr.eng.Now()
	}
	if ev.Src == 0 {
		ev.Src = s.id
	}
	s.handle(ev)
}

func (s *Stone) handle(ev *Event) {
	if s.bridge != nil {
		s.bridge.forward(ev)
		return
	}
	emitted := ev
	if s.action != nil {
		// Collect emissions into the stone's reusable pending buffer.
		// Save/restore makes this safe if a downstream handler re-enters
		// this stone (a cycle routed back): the inner handle gets the
		// spare backing while the outer one's batch stays intact.
		saved := s.pending
		s.pending = s.spare[:0]
		s.spare = nil
		s.action.Handle(ev, s.emit)
		outs := s.pending
		s.pending = saved
		if len(s.targets) == 0 {
			s.mgr.delivered += int64(len(outs))
		} else {
			for _, out := range outs {
				s.fanOut(out)
			}
		}
		for i := range outs {
			outs[i] = nil
		}
		s.spare = outs[:0]
		return
	}
	if len(s.targets) == 0 {
		s.mgr.delivered++
		return
	}
	s.fanOut(emitted)
}

func (s *Stone) fanOut(ev *Event) {
	if len(s.targets) == 1 {
		s.targets[0].handle(ev)
		return
	}
	for _, t := range s.targets {
		c := *ev // each split target gets its own copy to annotate
		t.handle(&c)
	}
}

// String implements fmt.Stringer for debugging.
func (s *Stone) String() string {
	return fmt.Sprintf("stone(%d@node%d)", s.id, s.mgr.node)
}
