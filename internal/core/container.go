package core

import (
	"fmt"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/cluster"
	"repro/internal/datatap"
	"repro/internal/evpath"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/trace"
)

// State is a container's lifecycle state.
type State int

// Container states.
const (
	StateOnline State = iota
	StateOffline
)

// String implements fmt.Stringer.
func (s State) String() string {
	if s == StateOffline {
		return "offline"
	}
	return "online"
}

// metadataMsgBytes is the size of one endpoint-metadata exchange message
// during resizes (the intra-container traffic that dominates Fig. 4).
const metadataMsgBytes = 1024

// ctlMsgBytes is the size of a manager-to-manager control message.
const ctlMsgBytes = 256

// replicaPollInterval bounds how long a replica waits in Fetch before
// rechecking its stop flag, and paces an idle replica's checks for work.
const replicaPollInterval = time1s

const time1s = sim.Second

// Container embeds one analytics component into a managed execution
// environment (paper §III): it owns whole staging nodes, runs the
// component's replicas on them, measures per-step latency at its
// boundaries, and executes the resize/offline legs of the control
// protocols on request from the global manager.
type Container struct {
	rt   *Runtime
	spec ComponentSpec

	nodes    []*cluster.Node
	replicas []*replica

	input  *datatap.Channel
	output *datatap.Channel // nil for terminal stages
	// taps are additional output channels receiving a duplicate of every
	// forwarded step (mid-run observers such as visualization
	// containers).
	taps []*datatap.Channel

	// downstream names the container consuming our output (dependency
	// edge for offline cascades); empty for terminal stages.
	downstream string

	// subHub is the subscriber fan-out hub this container serves
	// SubResume/SubReplay rounds for (nil unless the run configures a
	// subscriber fleet on this container's input channel).
	subHub *datatap.SubHub

	// shard is the control-plane shard managing this container. It picks
	// the upward bridge target and, on sharded runs, labels compute spans
	// so the critical-path analyzer can name the hot shard.
	shard int

	state  State
	active bool // consuming (ActivateOnCrack components start passive)
	// observer containers consume duplicated taps; their completions are
	// not pipeline exits.
	observer bool

	// mgr is the local container manager's event context, pinned to the
	// container's first node.
	mgrEV   *evpath.Manager
	mailbox *evpath.Mailbox
	toGM    *evpath.Stone // bridge to the global manager's control mailbox
	// staleGM keeps the pre-rehome upward bridge alive so FenceResp
	// refusals can still reach a deposed manager's response mailbox.
	staleGM *evpath.Stone
	// fencedEpoch is the highest manager epoch that has contacted this
	// container; lower-epoch rounds are refused (see fence.go).
	fencedEpoch int64

	// Self-healing state: healSeq numbers heal rounds so stale grants are
	// recognized; deferred buffers mailbox events that arrived while an
	// in-progress doHeal was pumping the mailbox for its grant; replicaSeq
	// hands out replica indices monotonically so names stay unique across
	// crash/replace cycles.
	healSeq    int64
	deferred   []*evpath.Event
	replicaSeq int

	// diskSinks receives output when the downstream is offline (one
	// shared sink; per-replica ADIOS groups all point at it).
	diskSink   *adios.FileSink
	diskGroups []*adios.Group
	writeDisk  bool
	provenance string

	// Monitoring.
	lastService sim.Time
	crackSeen   bool
	// probe applies the configured monitoring rate/aggregation before
	// samples cross the machine.
	probe *monitor.Probe

	// stepsProcessed counts steps fully processed by this container.
	stepsProcessed int64
}

// replica is one running instance of the component.
type replica struct {
	c      *Container
	idx    int
	node   *cluster.Node
	reader *datatap.Reader
	writer *datatap.Writer
	// tapWriters duplicate output onto observer channels.
	tapWriters map[*datatap.Channel]*datatap.Writer
	group      *adios.Group // per-replica ADIOS group for disk fallback
	stop       bool
	done       *sim.Event
	proc       *sim.Proc
	busy       bool
	// abort interrupts an in-flight computation (MPI-style teardown or
	// offline kill); recreated for each processed step.
	abort *sim.Event
	// curMeta is the step being computed, for requeue on abort.
	curMeta *datatap.Meta
}

// Name returns the container's component name.
func (c *Container) Name() string { return c.spec.Name }

// Spec returns the component specification.
func (c *Container) Spec() ComponentSpec { return c.spec }

// State returns the lifecycle state.
func (c *Container) State() State { return c.state }

// Active reports whether the container is consuming its input.
func (c *Container) Active() bool { return c.active && c.state == StateOnline }

// Size returns the current node (== replica) count.
func (c *Container) Size() int { return len(c.nodes) }

// Nodes returns the owned nodes (shared slice; do not mutate).
func (c *Container) Nodes() []*cluster.Node { return c.nodes }

// StepsProcessed returns the number of steps the container completed.
func (c *Container) StepsProcessed() int64 { return c.stepsProcessed }

// DiskSink returns the sink used after offline transitions (may be nil if
// never used). Finish it to inspect provenance-stamped output.
func (c *Container) DiskSink() *adios.FileSink { return c.diskSink }

// ThroughputPeriod returns the minimum sustainable step period at the
// current size (local-manager knowledge: the component's speedup curve).
func (c *Container) ThroughputPeriod() sim.Time {
	return c.spec.Cost.ThroughputPeriod(c.rt.cfg.Scale.AtomCount, c.spec.Model,
		len(c.replicas), c.crackSeen)
}

// SLAPeriod returns the per-step deadline this container is managed
// against: the output period scaled by the component's SLA relaxation
// (checkpoint aggregation tolerates multiple periods; crack discovery
// does not).
func (c *Container) SLAPeriod() sim.Time {
	k := c.spec.SLAPeriods
	if k < 1 {
		k = 1
	}
	return sim.Time(k) * c.rt.cfg.OutputPeriod
}

// ReplicasNeeded answers the global manager's query: the total replica
// count needed to sustain the container's SLA period (0 = unattainable
// below max).
func (c *Container) ReplicasNeeded(max int) int {
	return c.spec.Cost.ReplicasToSustain(c.rt.cfg.Scale.AtomCount, c.spec.Model,
		c.SLAPeriod(), c.crackSeen, max)
}

// newContainer builds a container (not yet started) on the given nodes.
func (rt *Runtime) newContainer(spec ComponentSpec, nodes []*cluster.Node,
	input, output *datatap.Channel, downstream string) (*Container, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: container %s needs at least one node", spec.Name)
	}
	c := &Container{
		rt:         rt,
		spec:       spec,
		input:      input,
		output:     output,
		downstream: downstream,
		state:      StateOnline,
		active:     !spec.ActivateOnCrack,
	}
	c.mgrEV = evpath.NewManager(rt.eng, rt.mach, nodes[0].ID)
	c.mgrEV.SetTracer(rt.tracer)
	c.mailbox = evpath.NewMailbox(c.mgrEV)
	c.nodes = append(c.nodes, nodes...)
	return c, nil
}

// start launches the container's manager process, heartbeat monitor, and
// initial replicas (without aprun cost: the initial deployment happens
// inside the batch job's startup, as in the paper's experiments).
func (c *Container) start() {
	c.toGM = c.mgrEV.NewBridge(c.rt.shardPrimary[c.shard].inbox())
	c.probe = monitor.NewProbe(c.toGM)
	c.probe.Every = c.rt.cfg.MonitorSampleEvery
	c.probe.AggregateN = c.rt.cfg.MonitorAggregateN
	for _, n := range c.nodes {
		c.addReplica(n)
	}
	c.rt.eng.Go(c.spec.Name+"-mgr", c.managerLoop)
	c.every(func() bool { return c.rt.shardPrimary[c.shard].ctl.Closed() }, c.heartbeat)
}

// every runs tick once per policy interval as a chain of engine
// callbacks, until the container goes offline or closed reports true.
func (c *Container) every(closed func() bool, tick func()) {
	var step func()
	step = func() {
		if c.state == StateOffline || closed() {
			return
		}
		tick()
		c.rt.eng.After(c.rt.cfg.OutputPeriod, step)
	}
	c.rt.eng.After(c.rt.cfg.OutputPeriod, step)
}

// heartbeat reports queue pressure even while every replica is stuck
// in a long computation: without it, a badly under-provisioned container
// would emit no samples at all and the global manager would be blind to
// exactly the situations it must act on (paper §III-E: monitoring
// captures metrics "at the container boundaries").
func (c *Container) heartbeat() {
	if !c.Active() || c.input == nil || c.input.QueueLen() == 0 {
		return
	}
	now := c.rt.eng.Now()
	c.report(monitor.Sample{
		Container: c.spec.Name,
		Step:      -1, // pressure sample, not a completion
		Latency:   c.input.HeadAge(now),
		Service:   c.lastService,
		QueueLen:  c.input.QueueLen(),
		At:        now,
	})
}

// watchReplicas arms the local manager's crash detector (only under
// fault injection with self-healing enabled): once per policy interval,
// a newly crashed replica node submits a HealReq to the container's own
// mailbox, so the repair serializes with resizes and offline
// transitions in the manager loop.
func (c *Container) watchReplicas() {
	reported := map[int]bool{}
	c.every(c.mailbox.Closed, func() {
		crashed := false
		for _, r := range c.replicas {
			if !r.node.Up() && !reported[r.node.ID] {
				reported[r.node.ID] = true
				crashed = true
			}
		}
		if crashed {
			c.mailbox.Stone.Submit(&evpath.Event{Type: msgHeal, Data: &HealReq{}})
		}
	})
}

// addReplica creates and starts a replica on node n.
func (c *Container) addReplica(n *cluster.Node) *replica {
	r := &replica{
		c:    c,
		idx:  c.replicaSeq,
		node: n,
		done: sim.NewEvent(c.rt.eng),
	}
	c.replicaSeq++
	if c.input != nil {
		r.reader = c.input.NewReader(n.ID)
	}
	if c.output != nil {
		r.writer = c.output.NewWriter(n.ID)
	}
	r.tapWriters = make(map[*datatap.Channel]*datatap.Writer, len(c.taps))
	for _, tap := range c.taps {
		r.tapWriters[tap] = tap.NewWriter(n.ID)
	}
	r.group = c.rt.io.DeclareGroup(fmt.Sprintf("%s.out.%d", c.spec.Name, r.idx))
	if c.writeDisk || c.spec.DiskOutput {
		c.bindReplicaToDisk(r)
	}
	c.replicas = append(c.replicas, r)
	c.diskGroups = append(c.diskGroups, r.group)
	r.proc = c.rt.eng.Go(fmt.Sprintf("%s-replica-%d", c.spec.Name, r.idx), r.run)
	return r
}

// bindReplicaToDisk points a replica's ADIOS group at the shared disk
// sink with the container's provenance attributes.
func (c *Container) bindReplicaToDisk(r *replica) {
	if c.diskSink == nil {
		sink, err := adios.NewFileSink(c.spec.Name + ".offline.bp")
		if err != nil {
			panic(err) // in-memory sink creation cannot fail in practice
		}
		c.diskSink = sink
	}
	r.group.UseFile(c.diskSink)
	if c.provenance != "" {
		r.group.SetAttr(AttrProvenance, c.provenance)
	}
}

// isFetcher reports whether this replica pulls steps from the input. RR
// and serial replicas all fetch whole steps; under the tree and parallel
// (MPI) models the replicas cooperate on each step, so only the lead
// replica fetches while the others represent tree/rank members.
func (r *replica) isFetcher() bool {
	switch r.c.spec.Model {
	case smartpointer.ModelTree, smartpointer.ModelParallel:
		return len(r.c.replicas) > 0 && r == r.c.replicas[0]
	}
	return true
}

// run is a replica's main loop: fetch a step, compute, forward.
//
// Both waits poll once per replicaPollInterval, and the kernel runs the
// polls that change nothing: idle keeps an idle replica asleep, and
// fetching keeps a fetch wait on an empty input armed, each exactly while
// the next pass of this loop would do the same again. So the process
// resumes only to act, with the same events at the same instants.
func (r *replica) run(p *sim.Proc) {
	defer r.done.Fire()
	c := r.c
	idle := func() bool {
		return !r.stop && !r.fetching() && c.input != nil && !c.input.Closed()
	}
	fetching := func() bool {
		return !c.input.Closed() && !r.stop && r.fetching()
	}
	for {
		if r.stop {
			return
		}
		if !r.fetching() {
			// Passive (pre-crack CNA), offline, or a non-lead
			// tree/rank member: idle without consuming. A closed input
			// means there will never be anything to do — exit rather
			// than poll forever (a replica can reach this state when a
			// resize completes after the run's shutdown began).
			if c.input == nil || c.input.Closed() {
				return
			}
			p.SleepWhile(replicaPollInterval, idle)
			continue
		}
		m, ok := r.reader.FetchPoll(p, replicaPollInterval, fetching)
		if !ok {
			if c.input.Closed() {
				return
			}
			continue
		}
		r.busy = true
		r.process(p, m)
		r.busy = false
	}
}

// fetching reports whether the replica's loop pulls steps right now: its
// container is active and it is a fetcher.
func (r *replica) fetching() bool { return r.c.Active() && r.isFetcher() }

// process executes the component on one fetched step. The computation is
// interruptible: an MPI-style teardown (or offline kill) fires r.abort,
// in which case the step is requeued (teardown) or dropped (offline)
// rather than forwarded.
func (r *replica) process(p *sim.Proc, m *datatap.Meta) {
	c := r.c
	sp := c.rt.tracer.Begin(m.Span, "core", "compute").
		Container(c.spec.Name).Node(r.node.ID).Step(m.Step)
	if c.rt.Sharded() {
		sp.AttrInt("shard", int64(c.shard))
	}
	// A stalled node freezes mid-step: the process is alive but makes no
	// progress until the stall window closes (nil-safe; 0 without faults).
	if d := c.rt.mach.Faults().StallRemaining(r.node.ID); d > 0 {
		sp.Attr("stalled", "1")
		p.Sleep(d)
	}
	pg, _ := m.Data.(*bp.ProcessGroup)
	fi := FrameInfo{Step: m.Step, Atoms: c.rt.cfg.Scale.AtomCount}
	if pg != nil {
		if decoded, err := DecodeFrame(pg); err == nil {
			fi = decoded
			if fi.Atoms == 0 {
				fi.Atoms = c.rt.cfg.Scale.AtomCount
			}
		}
	}
	if fi.Crack && !c.crackSeen {
		c.crackSeen = true
		c.notifyCrack()
	}
	st := c.spec.Cost.ServiceTime(fi.Atoms, c.spec.Model, len(c.replicas), fi.Crack)
	r.curMeta = m
	r.abort = sim.NewEvent(c.rt.eng)
	interrupted := r.abort.WaitTimeout(p, st)
	r.abort = nil
	r.curMeta = nil
	if interrupted {
		if c.state == StateOffline {
			c.rt.dropped++
			sp.Attr("interrupted", "offline").End()
			return
		}
		if !c.input.Requeue(m) {
			c.rt.dropped++
		}
		sp.Attr("interrupted", "teardown").End()
		return
	}
	c.lastService = st
	c.stepsProcessed++
	latency := p.Now() - m.Created
	spID := sp.ID() // before End: spans recycle once ended
	sp.End()
	c.report(monitor.Sample{
		Container: c.spec.Name,
		Step:      m.Step,
		Latency:   latency,
		Service:   st,
		QueueLen:  c.input.QueueLen(),
		At:        p.Now(),
	})
	r.forward(p, m, pg, fi, spID)
	// Processing ack: under at-least-once delivery the upstream writer
	// retains the payload until the step has been computed AND routed
	// downstream; only then may it stop guarding against redelivery.
	// (No-op in best-effort mode.)
	r.reader.Ack(p, m)
}

// forward routes the processed step downstream: to the output channel
// when the downstream container is online, else to disk with provenance,
// else (terminal stage) records pipeline exit. parent is the compute
// span's trace context; outgoing writes chain from it.
func (r *replica) forward(p *sim.Proc, m *datatap.Meta, pg *bp.ProcessGroup, fi FrameInfo, parent trace.SpanID) {
	c := r.c
	outSize := int64(float64(m.Size) * c.spec.OutputFactor)
	// Observers get a duplicate of every step regardless of where the
	// primary output goes; a saturated tap drops rather than stalls the
	// pipeline (TryPut semantics via a bounded tap queue). Iterate the
	// attachment-ordered tap list, not the writer map: tap writes transfer
	// simulated bytes, so their order must be deterministic.
	for _, tap := range c.taps {
		w, ok := r.tapWriters[tap]
		if !ok {
			continue
		}
		out := pg
		if pg != nil {
			clone := *pg
			out = &clone
		}
		if !tap.Full() {
			//iocheck:allow dropresult observer taps drop on saturation by design; the primary output path below is the guarded one
			w.WriteTraced(p, m.Step, outSize, out, parent)
		}
	}
	switch {
	case c.observer:
		// Observation only: nothing downstream, no exit accounting.
	case c.writeDisk || c.spec.DiskOutput:
		sw, err := r.group.Open(m.Step)
		if err == nil {
			sw.PadBytes(outSize)
			if pg != nil && pg.Attrs != nil {
				for k, v := range pg.Attrs {
					sw.SetAttr(k, v)
				}
			}
			if c.provenance != "" {
				sw.SetAttr(AttrProvenance, c.provenance)
			}
			if _, err := sw.Close(p); err != nil {
				c.rt.fail(err)
			}
		}
		c.rt.recordExit(p.Now(), fi)
	case c.output != nil:
		out := pg
		if pg != nil {
			clone := *pg
			out = &clone
		}
		if !r.writer.WriteTraced(p, m.Step, outSize, out, parent) &&
			!c.output.Closed() && r.node.Up() {
			// A refused write on a live channel by a live replica is a real
			// loss (a best-effort push failure); record it so the delivery
			// oracle can hold the run to account. Writes refused by shutdown
			// are not losses, and a write that failed because this replica's
			// own node just died is crash accounting, not silent loss: in
			// at-least-once mode the transport tombstones it, and the heal
			// protocol owns the replica.
			c.rt.noteDeliveryLoss(c.spec.Name, m.Step, "output-write")
		}
	default:
		// Terminal stage: the step has left the pipeline.
		c.rt.recordExit(p.Now(), fi)
	}
}

// report sends a monitoring sample to the global manager over the
// monitoring overlay, through the container's probe.
func (c *Container) report(s monitor.Sample) {
	c.rt.recordSample(s)
	if s.Step >= 0 && s.Latency > c.SLAPeriod() {
		// The first SLA violation freezes the flight recorder's lead-up.
		c.rt.tracer.Trigger("sla:" + c.spec.Name)
	}
	c.probe.Offer(s)
}

// MonitoringTraffic reports how many monitoring events this container
// sent across the machine versus how many samples it captured — the
// perturbation §III-E's flexible monitoring exists to control.
func (c *Container) MonitoringTraffic() (captured, sent int64) {
	return c.probe.Seen(), c.probe.Sent()
}

// notifyCrack tells the global manager crack formation was observed (the
// pipeline's dynamic-branch trigger).
func (c *Container) notifyCrack() {
	c.toGM.Submit(&evpath.Event{Type: msgCrackDetected, Size: ctlMsgBytes,
		Data: &CrackNotice{From: c.spec.Name, Step: c.stepsProcessed}})
}

// noteGap reports a detected input-sequence gap to the global manager,
// which answers with a ResendReq round to the upstream container. It is
// installed as the input channel's gap handler under at-least-once
// delivery; the channel rate-limits invocations.
func (c *Container) noteGap(missing int64) {
	if c.state == StateOffline || c.toGM == nil {
		return
	}
	c.toGM.Submit(&evpath.Event{Type: msgGap, Size: ctlMsgBytes,
		Data: &GapNotice{From: c.spec.Name, Channel: c.input.Name(), Missing: missing}})
}
