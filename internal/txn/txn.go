// Package txn implements doubly-distributed transactions (D2T) in the
// style the paper evaluates for resilient management operations (§III-A
// requirement (5), Fig. 6): a control action — such as moving a node from
// one container to another — must either complete everywhere or nowhere,
// even though both sides of the operation are themselves distributed
// (many writer processes, several reader/staging processes).
//
// The protocol is a two-phase commit with per-side sub-coordination: each
// side gathers votes up a k-ary tree to its sub-coordinator, the
// sub-coordinators agree, and the decision is broadcast back down with
// acknowledgment gathering to guarantee completion. Tree aggregation is
// what gives the "good scalability" the paper reports — the time to
// complete grows with tree depth (log of the participant count), not with
// the participant count itself.
//
// Failure injection (abort votes, silent participants) exercises the
// consistency guarantee: every responsive participant decides the same
// outcome.
package txn

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Outcome is a transaction's decision.
type Outcome int

// Transaction outcomes.
const (
	Committed Outcome = iota
	Aborted
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	if o == Committed {
		return "committed"
	}
	return "aborted"
}

// Config parameterizes one transaction.
type Config struct {
	// Writers and Readers are the participant counts on each side (the
	// paper's Fig. 6 sweeps writer:reader core ratios like 512:4).
	Writers, Readers int
	// VoteTimeout bounds how long a parent waits for a child's vote
	// before presuming failure and aborting (default 5 s).
	VoteTimeout sim.Time
	// AbortVoters vote abort; SilentRanks never respond (failure
	// injection). Ranks are global: writers first, then readers.
	AbortVoters map[int]bool
	SilentRanks map[int]bool
	// Tracer, when set, wraps the run in a "txn" span chained to
	// TraceParent (0 = root).
	Tracer      *trace.Recorder
	TraceParent trace.SpanID
}

// Protocol shape, fixed for every transaction.
const (
	// fanOut is the sub-coordination tree arity.
	fanOut = 8
	// msgBytes sizes each protocol message.
	msgBytes = 256
	// workTime is each participant's local work before voting; the
	// protocol overhead is measured around it.
	workTime = sim.Millisecond
)

func (c Config) withDefaults() Config {
	if c.VoteTimeout <= 0 {
		c.VoteTimeout = 5 * sim.Second
	}
	return c
}

// Stats reports a completed transaction.
type Stats struct {
	Outcome  Outcome
	Duration sim.Time
	// Messages counts protocol messages exchanged.
	Messages int64
	// Decided counts participants that reached a decision (responsive
	// participants).
	Decided int
	// Depth is the deeper of the two sub-coordination trees.
	Depth int
}

type msgKind int

const (
	msgVote msgKind = iota
	msgDecision
	msgAck
)

type message struct {
	kind msgKind
	from int
	// commit is the vote or decision payload.
	commit bool
}

type participant struct {
	rank     int
	node     int
	writer   bool
	parent   *participant
	children []*participant
	inbox    *sim.Queue[message]
	decision Outcome
	decided  bool
	silent   bool
	abort    bool
}

// Transaction is a single runnable D2T instance.
type Transaction struct {
	eng    *sim.Engine
	mach   *cluster.Machine
	cfg    Config
	parts  []*participant
	wRoot  *participant // writer-side sub-coordinator (global coordinator)
	rRoot  *participant // reader-side sub-coordinator
	msgs   int64
	doneEv *sim.Event
	stats  Stats
}

// New builds a transaction over the machine's nodes: writers are placed
// round-robin over the machine's cores (coresPerNode ranks per node),
// readers after them. mach may be nil for cost-free protocol tests.
func New(eng *sim.Engine, mach *cluster.Machine, cfg Config) (*Transaction, error) {
	cfg = cfg.withDefaults()
	if cfg.Writers < 1 || cfg.Readers < 1 {
		return nil, fmt.Errorf("txn: need at least one writer and one reader (got %d/%d)",
			cfg.Writers, cfg.Readers)
	}
	t := &Transaction{eng: eng, mach: mach, cfg: cfg, doneEv: sim.NewEvent(eng)}
	cores := 1
	nodes := 1
	if mach != nil {
		cores = mach.Config().CoresPerNode
		nodes = mach.Config().Nodes
	}
	total := cfg.Writers + cfg.Readers
	for rank := 0; rank < total; rank++ {
		p := &participant{
			rank:   rank,
			node:   (rank / cores) % nodes,
			writer: rank < cfg.Writers,
			inbox:  sim.NewQueue[message](eng, 0),
			silent: cfg.SilentRanks[rank],
			abort:  cfg.AbortVoters[rank],
		}
		t.parts = append(t.parts, p)
	}
	t.wRoot = t.buildTree(t.parts[:cfg.Writers])
	t.rRoot = t.buildTree(t.parts[cfg.Writers:])
	return t, nil
}

// buildTree links a group into a k-ary sub-coordination tree rooted at
// the group's first participant and returns the root.
func (t *Transaction) buildTree(group []*participant) *participant {
	k := fanOut
	for i, p := range group {
		if i == 0 {
			continue
		}
		parent := group[(i-1)/k]
		p.parent = parent
		parent.children = append(parent.children, p)
	}
	return group[0]
}

// depth returns the tree depth below p.
func depth(p *participant) int {
	d := 0
	for _, c := range p.children {
		if cd := depth(c) + 1; cd > d {
			d = cd
		}
	}
	return d
}

// send delivers a protocol message, charging the interconnect.
func (t *Transaction) send(p *sim.Proc, from, to *participant, m message) {
	if t.mach != nil && from.node != to.node {
		t.mach.Send(p, from.node, to.node, msgBytes)
	}
	t.msgs++
	to.inbox.TryPut(m)
}

// Run executes the transaction to completion and returns its stats. It
// must be called from a simulated process.
func (t *Transaction) Run(p *sim.Proc) Stats {
	sp := t.cfg.Tracer.Begin(t.cfg.TraceParent, "txn", "run").
		AttrInt("writers", int64(t.cfg.Writers)).AttrInt("readers", int64(t.cfg.Readers))
	start := t.eng.Now()
	for _, part := range t.parts {
		part := part
		t.eng.Go(fmt.Sprintf("txn-rank-%d", part.rank), func(pp *sim.Proc) {
			t.runParticipant(pp, part)
		})
	}
	t.doneEv.Wait(p)
	t.stats.Duration = t.eng.Now() - start
	t.stats.Messages = t.msgs
	for _, part := range t.parts {
		if part.decided {
			t.stats.Decided++
		}
	}
	dw, dr := depth(t.wRoot), depth(t.rRoot)
	if dr > dw {
		t.stats.Depth = dr
	} else {
		t.stats.Depth = dw
	}
	sp.Attr("outcome", t.stats.Outcome.String()).
		AttrInt("messages", t.stats.Messages).End()
	return t.stats
}

func (t *Transaction) runParticipant(p *sim.Proc, part *participant) {
	// Phase 0: local work.
	p.Sleep(workTime)
	// Phase 1: gather children votes (sub-coordination).
	vote := !part.abort
	deadline := t.eng.Now() + t.cfg.VoteTimeout
	for range part.children {
		m, ok := part.inbox.GetTimeout(p, deadline-t.eng.Now())
		if !ok {
			vote = false // a child is presumed failed
			break
		}
		if m.kind != msgVote || !m.commit {
			vote = false
		}
	}
	if part.silent {
		// A silent participant neither votes nor acks; its parent times
		// out and the transaction aborts.
		return
	}
	switch {
	case part == t.wRoot:
		t.coordinate(p, vote)
	case part == t.rRoot:
		// Reader sub-coordinator forwards the side's vote to the global
		// coordinator and awaits the decision.
		t.send(p, part, t.wRoot, message{kind: msgVote, from: part.rank, commit: vote})
		t.awaitDecision(p, part)
	default:
		t.send(p, part, part.parent, message{kind: msgVote, from: part.rank, commit: vote})
		t.awaitDecision(p, part)
	}
}

// coordinate runs the global decision at the writer-side root: combine
// the writer-side vote with the reader-side sub-coordinator's vote, then
// broadcast and gather acks.
func (t *Transaction) coordinate(p *sim.Proc, writersVote bool) {
	part := t.wRoot
	decision := writersVote
	deadline := t.eng.Now() + t.cfg.VoteTimeout
	m, ok := part.inbox.GetTimeout(p, deadline-t.eng.Now())
	if !ok || m.kind != msgVote || !m.commit {
		decision = false
	}
	part.decided = true
	if decision {
		part.decision = Committed
	} else {
		part.decision = Aborted
	}
	t.stats.Outcome = part.decision
	// Phase 2: decision broadcast to both trees.
	for _, c := range part.children {
		t.send(p, part, c, message{kind: msgDecision, from: part.rank, commit: decision})
	}
	t.send(p, part, t.rRoot, message{kind: msgDecision, from: part.rank, commit: decision})
	// Phase 3: gather acks (children subtrees + reader side).
	expected := len(part.children) + 1
	ackDeadline := t.eng.Now() + t.cfg.VoteTimeout
	for i := 0; i < expected; i++ {
		if _, ok := part.inbox.GetTimeout(p, ackDeadline-t.eng.Now()); !ok {
			break // failed subtree; the decision stands regardless
		}
	}
	t.doneEv.Fire()
}

// awaitDecision receives the decision, relays it down, gathers subtree
// acks, and acks upward.
func (t *Transaction) awaitDecision(p *sim.Proc, part *participant) {
	deadline := t.eng.Now() + 2*t.cfg.VoteTimeout
	for {
		m, ok := part.inbox.GetTimeout(p, deadline-t.eng.Now())
		if !ok {
			return // orphaned (coordinator failed); undecided
		}
		if m.kind != msgDecision {
			continue // late vote from a slow child; ignore
		}
		part.decided = true
		if m.commit {
			part.decision = Committed
		} else {
			part.decision = Aborted
		}
		break
	}
	for _, c := range part.children {
		t.send(p, part, c, message{kind: msgDecision, from: part.rank, commit: part.decision == Committed})
	}
	ackDeadline := t.eng.Now() + t.cfg.VoteTimeout
	for range part.children {
		m, ok := part.inbox.GetTimeout(p, ackDeadline-t.eng.Now())
		if !ok {
			break
		}
		_ = m
	}
	up := part.parent
	if part == t.rRoot {
		up = t.wRoot
	}
	t.send(p, part, up, message{kind: msgAck, from: part.rank, commit: true})
}

// Outcomes returns each responsive participant's decision, keyed by rank.
func (t *Transaction) Outcomes() map[int]Outcome {
	out := make(map[int]Outcome)
	for _, p := range t.parts {
		if p.decided {
			out[p.rank] = p.decision
		}
	}
	return out
}
