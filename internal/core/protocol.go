package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datatap"
	"repro/internal/evpath"
	"repro/internal/sim"
	"repro/internal/smartpointer"
)

// Control message event types on the management overlay.
const (
	msgIncrease      = "ctl.increase"
	msgDecrease      = "ctl.decrease"
	msgOffline       = "ctl.offline"
	msgSetOutput     = "ctl.set_output"
	msgQuery         = "ctl.query"
	msgActivate      = "ctl.activate"
	msgAddTap        = "ctl.add_tap"
	msgResend        = "ctl.resend"
	msgResp          = "ctl.resp"
	msgCrackDetected = "ctl.crack"
	msgGap           = "ctl.gap"
	// Replica-restart protocol (self-healing under fault injection).
	msgSpare      = "ctl.spare"       // LM -> GM: request replacement nodes
	msgSpareGrant = "ctl.spare_grant" // GM -> LM: granted nodes (may be empty)
	msgHeal       = "ctl.heal"        // watch -> own LM: crashed replica detected
	msgHealNotice = "ctl.heal_notice" // LM -> GM: heal outcome, for the action log
)

// RoundHdr is the header every control-round message embeds: the round's
// sequence number (the container's dedupe key, drawn from the runtime-wide
// rt.ctlSeq) and its fencing epoch (the issuing manager's on a request, the
// container's fenced epoch on a response). Embedding it is what makes a
// message a round: the manager stamps it through hdr() when it sends, the
// container reads it once when it serves, and the iocheck round rules
// recognise round messages by it.
type RoundHdr struct{ Seq, Epoch int64 }

func (h *RoundHdr) hdr() *RoundHdr { return h }

// roundMsg is any message that embeds RoundHdr.
type roundMsg interface{ hdr() *RoundHdr }

// roundReq is a round request; kind is its overlay event type.
type roundReq interface {
	roundMsg
	kind() string
}

// IncreaseReq asks a container to grow onto the given nodes (paper
// Fig. 3). The global manager has already reserved the nodes.
type IncreaseReq struct {
	RoundHdr
	Nodes []*cluster.Node
}

// IncreaseResp reports a completed increase with its cost breakdown: the
// aprun-like launch (reported separately, as the paper factors it out of
// Fig. 4) and the intra-container metadata exchange that dominates.
type IncreaseResp struct {
	RoundHdr
	Launch sim.Time
	Intra  sim.Time
	Size   int
}

// DecreaseReq asks a container to shed n replicas.
type DecreaseReq struct {
	RoundHdr
	N int
}

// DecreaseResp returns the released nodes and the cost breakdown: the
// upstream DataTap writer pause (the dominant Fig. 5 term) and the victim
// drain.
type DecreaseResp struct {
	RoundHdr
	Nodes     []*cluster.Node
	PauseWait sim.Time
	Drain     sim.Time
	Size      int
}

// OfflineReq takes the container offline entirely.
type OfflineReq struct{ RoundHdr }

// OfflineResp returns all nodes and the count of queued steps dropped.
type OfflineResp struct {
	RoundHdr
	Nodes   []*cluster.Node
	Dropped int
}

// SetOutputReq redirects a container's output to disk with provenance
// (the upstream half of an offline transition).
type SetOutputReq struct {
	RoundHdr
	Provenance string
}

// SetOutputResp acknowledges the switch.
type SetOutputResp struct{ RoundHdr }

// QueryReq asks the local manager what it needs to sustain the SLA.
type QueryReq struct {
	RoundHdr
	Max int
}

// QueryResp carries the local manager's answer.
type QueryResp struct {
	RoundHdr
	Size   int
	Needed int // total replicas needed; 0 = unattainable within Max
	Period sim.Time
}

// ActivateReq toggles consumption (the pipeline's dynamic branch).
type ActivateReq struct {
	RoundHdr
	Active bool
}

// ActivateResp acknowledges the toggle.
type ActivateResp struct{ RoundHdr }

// AddTapReq attaches an observer channel that receives a duplicate of
// every step the container forwards (mid-run visualization taps).
type AddTapReq struct {
	RoundHdr
	Ch *datatap.Channel
}

// AddTapResp acknowledges the tap.
type AddTapResp struct{ RoundHdr }

// ResendReq asks a container to re-emit retained output steps whose
// descriptors were lost in flight (the at-least-once data plane's control
// leg). The serving container replays every lost-but-retained step onto
// its output channel immediately, bypassing the channel's own redelivery
// backoff.
type ResendReq struct{ RoundHdr }

// ResendResp reports how many steps the container re-emitted.
type ResendResp struct {
	RoundHdr
	Redelivered int
}

func (*IncreaseReq) kind() string  { return msgIncrease }
func (*DecreaseReq) kind() string  { return msgDecrease }
func (*OfflineReq) kind() string   { return msgOffline }
func (*SetOutputReq) kind() string { return msgSetOutput }
func (*QueryReq) kind() string     { return msgQuery }
func (*ActivateReq) kind() string  { return msgActivate }
func (*AddTapReq) kind() string    { return msgAddTap }
func (*ResendReq) kind() string    { return msgResend }

// roundSpans holds each round type's two span names as constants — the
// issuer's "round.*" and the container's "serve.*" — so that no round
// builds a string. TestRoundServeContract covers every type.
var roundSpans = map[string]struct{ round, serve string }{
	msgIncrease:  {"round.increase", "serve.increase"},
	msgDecrease:  {"round.decrease", "serve.decrease"},
	msgOffline:   {"round.offline", "serve.offline"},
	msgSetOutput: {"round.set_output", "serve.set_output"},
	msgQuery:     {"round.query", "serve.query"},
	msgActivate:  {"round.activate", "serve.activate"},
	msgAddTap:    {"round.add_tap", "serve.add_tap"},
	msgResend:    {"round.resend", "serve.resend"},
	msgRehome:    {"round.rehome", "serve.rehome"},
	msgSubResume: {"round.sub_resume", "serve.sub_resume"},
	msgSubReplay: {"round.sub_replay", "serve.sub_replay"},
}

// CrackNotice informs the global manager of observed crack formation.
type CrackNotice struct {
	From string
	Step int64
}

// GapNotice is a consumer container's report that its input channel
// detected missing step sequences. Like CrackNotice it is a pump message,
// not a synchronous round: the global manager reacts by issuing a
// ResendReq round to the upstream container at its next tick.
type GapNotice struct {
	From    string
	Channel string
	Missing int64
}

// SpareReq is the replica-restart protocol's first leg: a local manager
// that detected crashed replicas asks the global manager for replacement
// nodes. It travels upward on the container's control bridge and is served
// from the global manager's pump (not the synchronous call path), so it is
// not a round and embeds no RoundHdr: its Seq matches the grant to a heal
// round, and the GM's call machinery never retries it.
type SpareReq struct {
	Seq  int64
	From string
	N    int
}

// SpareGrant answers a SpareReq with zero or more spare nodes. An empty
// grant instructs the requester to degrade (continue at reduced size).
type SpareGrant struct {
	Seq   int64
	Nodes []*cluster.Node
}

// HealReq is submitted by a container's own replica watch to its local
// manager when a resident node crashed; running the repair inside the
// manager loop serializes it with resizes and offlines.
type HealReq struct{}

// HealNotice reports a heal outcome to the global manager's action log.
type HealNotice struct {
	From     string
	Lost     int
	Size     int
	Degraded bool
}

// managerLoop is the container's local manager process: it serves control
// requests from the global manager, one at a time. Served rounds are
// cached by sequence number so a retried request (the global manager's
// at-least-once delivery under call timeouts) resends the original
// response instead of executing a mutating operation twice.
func (c *Container) managerLoop(p *sim.Proc) {
	served := make(map[int64]roundMsg)
	for {
		var ev *evpath.Event
		if len(c.deferred) > 0 {
			// Events set aside while doHeal was pumping for its grant.
			ev = c.deferred[0]
			c.deferred = c.deferred[1:]
		} else {
			var ok bool
			ev, ok = c.mailbox.Recv(p)
			if !ok {
				return
			}
		}
		// Self-healing traffic is not a synchronous GM round.
		switch msg := ev.Data.(type) {
		case *HealReq:
			c.doHeal(p)
			continue
		case *SpareGrant:
			// A grant that arrives after its heal round timed out still
			// carries real spare nodes; absorb them rather than leak them.
			if len(msg.Nodes) > 0 {
				c.integrateNodes(p, msg.Nodes)
			}
			continue
		}
		// One header read serves the fence and the dedupe cache; anything
		// that is not a round reads as a zero header. Both guards sit on
		// every path to the dispatch; TestRoundServeContract and
		// TestContainerRefusesStaleEpochRound fail if either is skipped.
		var h RoundHdr
		msg, isRound := ev.Data.(roundMsg)
		if isRound {
			h = *msg.hdr()
		}
		if e := h.Epoch; isRound && c.rt.fencingOn() {
			if e < c.fencedEpoch {
				// A round from a deposed manager epoch. Refuse it — even a
				// cached one: serving (or re-serving) it would let a stale
				// primary keep mutating the pipeline after a failover.
				c.fence(h.Seq, e, ev.Span)
				continue
			}
			if e > c.fencedEpoch {
				c.fencedEpoch = e
			}
		}
		if cached, dup := served[h.Seq]; isRound && dup {
			// A retried round answered from the cache: visible in the
			// trace as an instant chained to the retry's round span.
			c.rt.tracer.Instant(ev.Span, "ctl", "dedupe").
				Container(c.spec.Name).Node(c.mgrEV.Node()).
				AttrInt("seq", h.Seq).End()
			c.reply(cached)
			continue
		}
		sp := c.rt.tracer.Begin(ev.Span, "ctl", roundSpans[ev.Type].serve).
			Container(c.spec.Name).Node(c.mgrEV.Node())
		var resp roundMsg
		exit := false
		switch req := ev.Data.(type) {
		case *IncreaseReq:
			launch, intra := c.doIncrease(p, req.Nodes)
			resp = &IncreaseResp{Launch: launch, Intra: intra, Size: len(c.replicas)}
		case *DecreaseReq:
			nodes, pause, drain := c.doDecrease(p, req.N)
			resp = &DecreaseResp{Nodes: nodes, PauseWait: pause, Drain: drain,
				Size: len(c.replicas)}
		case *OfflineReq:
			nodes, dropped := c.doOffline(p)
			resp = &OfflineResp{Nodes: nodes, Dropped: dropped}
			exit = true // the manager itself shuts down with its container
		case *SetOutputReq:
			c.doSetOutput(req.Provenance)
			resp = &SetOutputResp{}
		case *QueryReq:
			resp = &QueryResp{Size: len(c.replicas), Needed: c.ReplicasNeeded(req.Max),
				Period: c.ThroughputPeriod()}
		case *ActivateReq:
			c.active = req.Active
			resp = &ActivateResp{}
		case *AddTapReq:
			c.doAddTap(req.Ch)
			resp = &AddTapResp{}
		case *ResendReq:
			n := 0
			if c.output != nil {
				n = c.output.RedeliverLost(p)
			}
			resp = &ResendResp{Redelivered: n}
		case *SubResumeReq:
			cursor, lag, fromSpill, ok := c.serveSubResume(req.SubID)
			resp = &SubResumeResp{SubID: req.SubID, Cursor: cursor, Lag: lag,
				FromSpill: fromSpill, NeedReplay: ok && lag > 0 && !fromSpill, Ok: ok}
		case *SubReplayReq:
			staged, ok := c.serveSubReplay(req.SubID, req.Cursor)
			resp = &SubReplayResp{SubID: req.SubID, Staged: staged, Ok: ok}
		case *RehomeReq:
			// Keep the previous upward bridge alive: it is the only path a
			// FenceResp can take back to the manager it is deposing.
			if c.staleGM != nil {
				c.staleGM.CloseBridge()
			}
			c.staleGM = c.toGM
			c.toGM = c.mgrEV.NewBridge(req.Inbox)
			c.probe.Out = c.toGM // the probe must follow the new upward path
			resp = &RehomeResp{}
		default:
			c.rt.fail(fmt.Errorf("core: container %s got unknown control %T",
				c.spec.Name, ev.Data))
			sp.Attr("outcome", "unknown").End()
			return
		}
		rh := resp.hdr()
		rh.Seq, rh.Epoch = h.Seq, c.fencedEpoch
		c.reply(resp)
		served[h.Seq] = resp
		sp.End()
		if exit {
			return
		}
	}
}

func (c *Container) reply(data any) {
	c.toGM.Submit(&evpath.Event{Type: msgResp, Size: ctlMsgBytes, Data: data})
}

// doIncrease implements the increase protocol's container-side legs
// (paper Fig. 3): launch the new replicas (aprun cost, reported
// separately), then run the metadata-exchange rounds that let the new
// replicas communicate — with the container manager, with every existing
// replica, and with the upstream DataTap writers. The exchange is the
// dominant inherent cost and grows with the size of the increase, which
// is exactly the Fig. 4 result.
func (c *Container) doIncrease(p *sim.Proc, nodes []*cluster.Node) (launch, intra sim.Time) {
	if len(nodes) == 0 {
		return 0, 0
	}
	if c.spec.Model == smartpointer.ModelParallel && len(c.replicas) > 0 {
		return c.doParallelRelaunch(p, nodes)
	}
	job, err := c.rt.launcher.Launch(p, c.spec.Name, nodes)
	if err != nil {
		c.rt.fail(err)
		return 0, 0
	}
	launch = job.LaunchCost
	intraStart := p.Now()
	c.exchangeMetadata(p, nodes, c.replicas)
	intra = p.Now() - intraStart
	for _, n := range nodes {
		c.nodes = append(c.nodes, n)
		c.addReplica(n)
	}
	return launch, intra
}

// exchangeMetadata runs the endpoint-metadata rounds for newNodes joining
// a container with the given existing replicas.
func (c *Container) exchangeMetadata(p *sim.Proc, newNodes []*cluster.Node, existing []*replica) {
	mgrNode := c.mgrEV.Node()
	writers := c.input.Writers()
	for _, n := range newNodes {
		// New replica registers with the container manager.
		c.rt.mach.Send(p, n.ID, mgrNode, metadataMsgBytes)
		// Pairwise endpoint exchange with every existing replica.
		for _, ex := range existing {
			c.rt.mach.Send(p, n.ID, ex.node.ID, metadataMsgBytes)
			c.rt.mach.Send(p, ex.node.ID, n.ID, metadataMsgBytes)
		}
		// Connect to the upstream DataTap writers.
		for _, w := range writers {
			c.rt.mach.Send(p, n.ID, w.Node(), metadataMsgBytes)
		}
	}
}

// doParallelRelaunch grows an MPI-style parallel component, which cannot
// simply add ranks: "increasing the container size would require its
// complete teardown and restarting a new instance with an increased
// number of MPI ranks" (paper §III-D). The in-flight step is aborted and
// requeued so no timestep is lost, all replicas are torn down, and a new
// instance is launched over the combined node set.
func (c *Container) doParallelRelaunch(p *sim.Proc, nodes []*cluster.Node) (launch, intra sim.Time) {
	pauseInput := c.input
	pauseInput.Pause(p)
	for _, r := range c.replicas {
		r.stop = true
		if r.busy && r.abort != nil {
			r.abort.Fire()
		}
	}
	for _, r := range c.replicas {
		r.done.Wait(p)
	}
	allNodes := append(append([]*cluster.Node(nil), c.nodes...), nodes...)
	c.replicas = nil
	c.nodes = nil
	job, err := c.rt.launcher.Launch(p, c.spec.Name, allNodes)
	if err != nil {
		c.rt.fail(err)
		return 0, 0
	}
	launch = job.LaunchCost
	intraStart := p.Now()
	c.exchangeMetadata(p, allNodes, nil)
	intra = p.Now() - intraStart
	for _, n := range allNodes {
		c.nodes = append(c.nodes, n)
		c.addReplica(n)
	}
	pauseInput.Resume()
	return launch, intra
}

// doDecrease implements the decrease protocol: pause the upstream DataTap
// writers so no timestep is lost, drain and remove n victim replicas,
// resume. The pause wait dominates (paper Fig. 5).
func (c *Container) doDecrease(p *sim.Proc, n int) (released []*cluster.Node, pause, drain sim.Time) {
	if n <= 0 {
		return nil, 0, 0
	}
	if n > len(c.replicas) {
		n = len(c.replicas)
	}
	pause = c.input.Pause(p)
	drainStart := p.Now()
	victims := c.replicas[len(c.replicas)-n:]
	for _, v := range victims {
		// Control message asking the replica to drain and exit.
		c.rt.mach.Send(p, c.mgrEV.Node(), v.node.ID, ctlMsgBytes)
		v.stop = true
	}
	for _, v := range victims {
		v.done.Wait(p)
	}
	drain = p.Now() - drainStart
	c.replicas = c.replicas[:len(c.replicas)-n]
	released = append(released, c.nodes[len(c.nodes)-n:]...)
	c.nodes = c.nodes[:len(c.nodes)-n]
	c.input.Resume()
	return released, pause, drain
}

// doOffline removes the container from the data path: all replicas drain
// and exit, all nodes are released, and queued steps are dropped (their
// pending analyses are exactly what the upstream provenance attributes
// record). The input channel closes so upstream cannot block on it.
func (c *Container) doOffline(p *sim.Proc) (released []*cluster.Node, dropped int) {
	c.state = StateOffline
	c.active = false
	// No pause here: offline is a kill. The upstream already switched its
	// output to disk; pausing could deadlock against an upstream writer
	// blocked on this container's own unpulled backlog.
	for _, r := range c.replicas {
		c.rt.mach.Send(p, c.mgrEV.Node(), r.node.ID, ctlMsgBytes)
		r.stop = true
		if r.busy && r.abort != nil {
			// Offline is a kill, not a drain: abandon in-flight work.
			r.abort.Fire()
		}
	}
	for _, r := range c.replicas {
		r.done.Wait(p)
	}
	dropped = c.input.QueueLen()
	c.input.Close()
	released = append(released, c.nodes...)
	c.nodes = nil
	c.replicas = nil
	c.mailbox.Close()
	return released, dropped
}

// doHeal runs the container-side legs of the replica-restart protocol
// (multi-round, in the style of the increase protocol of Fig. 3):
//
//  1. reap replicas whose nodes crashed — detach their transport
//     endpoints, abort in-flight steps (requeued, not lost), and wait for
//     the processes to exit;
//  2. ask the global manager for replacement nodes (SpareReq up the
//     control bridge, answered from the manager's pump);
//  3. on a grant: aprun-launch the replacements, run the metadata
//     exchange, and re-wire replicas onto the input/output/tap channels;
//     on an empty grant or a silent manager: degrade — continue at the
//     smaller size rather than stall the pipeline.
//
// Running inside the manager loop serializes healing with resizes and
// offline transitions.
func (c *Container) doHeal(p *sim.Proc) {
	sp := c.rt.tracer.Begin(0, "ctl", "heal").
		Container(c.spec.Name).Node(c.mgrEV.Node())
	var survivors []*replica
	var dead []*replica
	for _, r := range c.replicas {
		if r.node.Up() {
			survivors = append(survivors, r)
		} else {
			dead = append(dead, r)
		}
	}
	if len(dead) == 0 {
		sp.AttrInt("lost", 0).End()
		return
	}
	for _, r := range dead {
		r.stop = true
		if r.busy && r.abort != nil {
			r.abort.Fire() // in-flight step is requeued by the abort path
		}
		// Detach dead endpoints first: RemoveWriter also releases a
		// process parked on the dead writer's buffer, letting it exit.
		if r.writer != nil && c.output != nil {
			c.output.RemoveWriter(r.writer)
		}
		// Detach in attachment order: RemoveWriter can release a parked
		// process, so map order here would leak into the event schedule.
		for _, tap := range c.taps {
			if w, ok := r.tapWriters[tap]; ok {
				tap.RemoveWriter(w)
			}
		}
	}
	for _, r := range dead {
		// Bounded wait: a zombie stuck behind a saturated downstream will
		// exit on its own once unblocked; healing proceeds without it.
		r.done.WaitTimeout(p, 30*sim.Second)
	}
	var liveNodes []*cluster.Node
	for _, n := range c.nodes {
		if n.Up() {
			liveNodes = append(liveNodes, n)
		}
	}
	c.replicas = survivors
	c.nodes = liveNodes
	lost := len(dead)

	c.healSeq++
	c.toGM.Submit(&evpath.Event{Type: msgSpare, Size: ctlMsgBytes,
		Data: &SpareReq{Seq: c.healSeq, From: c.spec.Name, N: lost}})
	granted := c.awaitGrant(p)
	if len(granted) == 0 {
		c.notifyHeal(lost, true)
		sp.AttrInt("lost", int64(lost)).Attr("outcome", "degraded").End()
		return
	}
	c.integrateNodes(p, granted)
	c.notifyHeal(lost, false)
	sp.AttrInt("lost", int64(lost)).Attr("outcome", "healed").End()
}

// awaitGrant pumps the container mailbox until the current heal round's
// grant arrives (or the deadline passes). It runs inside the manager loop,
// so the grant cannot be delivered by anyone else; unrelated control
// traffic that arrives meanwhile is deferred, preserving order, for the
// manager loop to process after the heal. Grants from a timed-out earlier
// round still carry real spare nodes, so their nodes are merged rather
// than leaked.
func (c *Container) awaitGrant(p *sim.Proc) []*cluster.Node {
	deadline := p.Now() + 2*c.rt.cfg.OutputPeriod
	var granted []*cluster.Node
	for {
		ev, ok := c.mailbox.RecvTimeout(p, deadline-p.Now())
		if !ok {
			return granted // deadline passed or mailbox closed
		}
		if g, isGrant := ev.Data.(*SpareGrant); isGrant {
			granted = append(granted, g.Nodes...)
			if g.Seq == c.healSeq {
				return granted
			}
			continue
		}
		c.deferred = append(c.deferred, ev)
	}
}

// integrateNodes brings replacement nodes into the running container:
// aprun launch, metadata exchange with the survivors, and replica
// creation (which re-wires the input/output/tap endpoints). A parallel
// (MPI-style) component cannot add ranks in place, so it relaunches over
// the combined node set instead, as with an increase.
func (c *Container) integrateNodes(p *sim.Proc, nodes []*cluster.Node) {
	if c.spec.Model == smartpointer.ModelParallel && len(c.replicas) > 0 {
		c.doParallelRelaunch(p, nodes)
		return
	}
	if _, err := c.rt.launcher.Launch(p, c.spec.Name, nodes); err != nil {
		c.rt.fail(err)
		return
	}
	c.exchangeMetadata(p, nodes, c.replicas)
	for _, n := range nodes {
		c.nodes = append(c.nodes, n)
		c.addReplica(n)
	}
}

// notifyHeal reports the heal outcome up to the global manager.
func (c *Container) notifyHeal(lost int, degraded bool) {
	c.toGM.Submit(&evpath.Event{Type: msgHealNotice, Size: ctlMsgBytes,
		Data: &HealNotice{From: c.spec.Name, Lost: lost,
			Size: len(c.replicas), Degraded: degraded}})
}

// doAddTap attaches an observer channel and gives every replica a writer
// endpoint on it.
func (c *Container) doAddTap(ch *datatap.Channel) {
	c.taps = append(c.taps, ch)
	for _, r := range c.replicas {
		r.tapWriters[ch] = ch.NewWriter(r.node.ID)
	}
}

// doSetOutput switches every replica's ADIOS output to the disk sink with
// provenance attributes — the upstream half of an offline transition
// ("each component replica in the upstream container has to switch its
// output method within ADIOS to write to disk using the attribute system
// to mark the provenance").
func (c *Container) doSetOutput(provenance string) {
	c.writeDisk = true
	c.provenance = provenance
	for _, r := range c.replicas {
		c.bindReplicaToDisk(r)
	}
}
