package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/adios"
	"repro/internal/cluster"
	"repro/internal/datatap"
	"repro/internal/fault"
	"repro/internal/lammps"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/shardmgr"
	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/trace"
)

// Config assembles a complete managed pipeline run: the machine split
// into simulation and staging partitions, the component stages and their
// initial sizes, the workload, and the management policy.
type Config struct {
	// SimNodes and StagingNodes partition the batch allocation (paper
	// ratios range 1:512 to 1:2048; the experiments use 256:13, 512:24,
	// 1024:24).
	SimNodes, StagingNodes int
	// Specs lists the pipeline stages in order (default: DefaultSpecs).
	Specs []ComponentSpec
	// Sizes maps component name to initial node count. Unlisted
	// components get 1 node. The sum must fit within StagingNodes;
	// leftovers become the spare pool.
	Sizes map[string]int
	// OutputPeriod is the simulation's output cadence (default 15 s). It is
	// also the management interval: the managers' policy tick, the
	// containers' heartbeats and the failover watches all run on it.
	OutputPeriod sim.Time
	// Steps is the number of output steps the simulation emits.
	Steps int
	// CrackStep (≥ 0) injects crack formation at that output step.
	CrackStep int64
	// QueueCap bounds each channel's metadata queue (default 30).
	QueueCap int
	// Delivery selects the data plane's delivery guarantee for the stage
	// channels (zero value = best-effort, today's semantics). The
	// checkpoint channel always runs best-effort: checkpoints are
	// periodic full-state dumps, so a lost one is superseded, not lost
	// work.
	Delivery datatap.DeliveryMode
	// Scale overrides the workload scale (default from SimNodes).
	Scale lammps.Scale
	// Policy tunes the global manager.
	Policy PolicyConfig
	// Seed drives all randomness.
	Seed int64
	// DrainTime extends the run after the last output step so the
	// pipeline can flush (default 4 output periods).
	DrainTime sim.Time
	// CheckpointEvery, when > 0, makes the simulation emit a full-state
	// checkpoint every k output steps, aggregated to stable storage by a
	// dedicated checkpoint container with a relaxed SLA.
	CheckpointEvery int
	// CheckpointNodes sizes the checkpoint container (default 1). Its
	// nodes come out of the staging partition like everyone else's.
	CheckpointNodes int
	// MonitorSampleEvery rate-limits each container's monitoring
	// reports: at most one sample per interval crosses the machine
	// (0 = every sample). §III-E: "how often they are captured".
	MonitorSampleEvery sim.Time
	// MonitorAggregateN pre-aggregates N samples into one averaged
	// report at the container boundary before it crosses the machine
	// (0/1 = none). §III-E: "how they are processed and where".
	MonitorAggregateN int
	// Shards is the number of control-plane shards (0 means 1).
	// Containers are assigned to shard managers by a seeded
	// consistent-hash ring. One shard is the paper's single global
	// manager, on the first staging node; more add a meta-manager above
	// the shard managers for cross-shard steals and crack relays (see
	// shard.go / meta.go), on ControlNodes dedicated staging nodes.
	Shards int
	// ShardSeed seeds the assignment ring (default: Seed), so placement
	// can be varied independently of the run's randomness.
	ShardSeed int64
	// ShardStandbys deploys a standby manager per shard (0 or 1) that
	// takes over if its primary dies (§III-B's single point of failure,
	// addressed ZooKeeper-style with heartbeats and failover). A single
	// shard's standby sits on the second staging node.
	ShardStandbys int
	// Subscribers attaches a streaming fan-out fleet — thousands of
	// simulated dashboards with Zipf-distributed read rates — to one stage
	// channel (see subscribe.go). Nil means no subscribers.
	Subscribers *SubscribersConfig
	// Faults injects a deterministic fault schedule (node crashes, link
	// degradation, partitions, control-message loss, subscriber crashes)
	// into the run. Nil or empty means a fault-free machine; see the fault
	// package.
	Faults *fault.Config
	// Trace enables the causal tracing subsystem: spans from every layer
	// land in a flight-recorder ring that auto-dumps on SLA violation,
	// queue overflow, or node crash. Nil disables tracing entirely.
	Trace *trace.Config
}

// writerBufBytes bounds each DataTap writer buffer: half a Franklin
// node's memory.
const writerBufBytes = 4 << 30

func (c Config) withDefaults() Config {
	if c.SimNodes <= 0 {
		c.SimNodes = 256
	}
	if c.StagingNodes <= 0 {
		c.StagingNodes = 13
	}
	if c.Specs == nil {
		c.Specs = DefaultSpecs()
	}
	if c.OutputPeriod <= 0 {
		c.OutputPeriod = 15 * sim.Second
	}
	if c.Steps <= 0 {
		c.Steps = 20
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 30
	}
	if c.Scale.AtomCount == 0 {
		c.Scale = lammps.ScaleForNodes(c.SimNodes)
	}
	if c.DrainTime <= 0 {
		c.DrainTime = 4 * c.OutputPeriod
	}
	if c.Sizes == nil {
		c.Sizes = map[string]int{}
	}
	if c.Shards > 1 && c.ShardSeed == 0 {
		c.ShardSeed = c.Seed
	}
	c.Policy = c.Policy.withDefaults()
	return c
}

// DefaultSizes returns the initial container sizing used by the paper's
// experiment configurations for a given staging area.
func DefaultSizes(stagingNodes int) map[string]int {
	switch {
	case stagingNodes >= 24:
		// Figs. 8/9: 24 staging nodes, 4 spare at the start.
		return map[string]int{"helper": 8, "bonds": 4, "csym": 4, "cna": 4}
	default:
		// Fig. 7: 13 staging nodes, no spare.
		return map[string]int{"helper": 6, "bonds": 2, "csym": 2, "cna": 3}
	}
}

// Runtime is an assembled pipeline run.
type Runtime struct {
	cfg      Config
	eng      *sim.Engine
	mach     *cluster.Machine
	launcher *cluster.Launcher
	io       *adios.IO

	containers   []*Container
	byName       map[string]*Container
	channels     []*datatap.Channel
	ckptChannel  *datatap.Channel
	stagingNodes []*cluster.Node // placement order: control plane, then region
	rec          *metrics.Recorder

	// Control plane. shardPrimary tracks the acting manager per shard
	// (reassigned on standby promotion); shardMgrs lists every manager in
	// creation order (primaries, then standbys) for shutdown and oracles;
	// dir is the container/node ownership ledger; meta is nil on
	// single-shard runs.
	meta         *MetaManager
	shardPrimary []*GlobalManager
	shardStandby []*GlobalManager
	shardMgrs    []*GlobalManager
	dir          *shardmgr.Directory

	// Subscriber fan-out (nil without Config.Subscribers): the hub on the
	// fanned-out stage channel and the container serving its control
	// rounds.
	subHub  *datatap.SubHub
	subHost *Container

	producerDone bool
	emitted      int
	exits        int64
	dropped      int
	firstErr     error
	deliveryLost []LostStep

	// faults is the armed fault schedule (nil on fault-free runs).
	faults *fault.Schedule
	// tracer is the causal trace recorder (nil when tracing is off; every
	// instrumentation site is nil-safe).
	tracer *trace.Recorder
	// ctlSeq numbers control rounds across every global manager instance;
	// a runtime-wide counter keeps a standby's rounds distinct from the
	// primary's in the containers' deduplication caches.
	ctlSeq int64
	// rounds / trades / crashVictims are runtime-wide logs consumed by the
	// chaos oracles (see internal/chaos): every control-round send attempt,
	// every D2T trade outcome, and every replica lost to a node crash.
	rounds       []RoundRecord
	trades       []TradeRecord
	crashVictims []CrashVictim
}

// ControlNodes returns how many staging nodes the control plane takes
// ahead of the container region. A single shard takes none: its manager
// and standby share the first placement-order staging nodes with the
// containers. More shards take a meta-manager node plus a primary and
// `standbys` standbys per shard.
func ControlNodes(shards, standbys int) int {
	if shards <= 1 {
		return 0
	}
	return 1 + shards*(1+standbys)
}

// Build assembles (but does not run) a pipeline runtime. The control plane
// is S = max(1, Shards) shard managers, each with an optional standby:
// containers map to shards by a seeded consistent-hash ring, spare nodes
// round-robin into per-shard pools, and each shard manager runs the full
// round machinery over its scope. With S > 1, staging node 0 hosts a
// meta-manager for the slow-path work — cross-shard steal brokering and
// crack relays (see shard.go / meta.go) — nodes 1..S the shard
// primaries, the next S·k the standbys (shard-major), and the rest the
// container region. A single shard is the paper's one global manager,
// with no meta-manager. At every shard count a standby runs the manager
// loop in standby mode and promotes itself when its primary's heartbeats
// stop.
func Build(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	S, k := max(1, cfg.Shards), cfg.ShardStandbys
	if k < 0 || k > 1 {
		return nil, fmt.Errorf("core: ShardStandbys must be 0 or 1, got %d", k)
	}
	if S > 1 && cfg.Policy.KillGMAt > 0 {
		return nil, fmt.Errorf("core: Policy.KillGMAt targets a single-shard manager; crash shard managers via a fault schedule")
	}
	rt := &Runtime{cfg: cfg, byName: map[string]*Container{}, rec: metrics.NewRecorder()}
	rt.eng = sim.NewEngine(cfg.Seed)
	if cfg.Trace != nil {
		rt.tracer = trace.New(rt.eng, *cfg.Trace)
		if k := trace.NewKernel(rt.tracer); k != nil {
			rt.eng.SetTracer(k)
		}
	}
	machCfg := cluster.Franklin()
	machCfg.Nodes = cfg.SimNodes + cfg.StagingNodes
	rt.mach = cluster.New(rt.eng, machCfg)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		fc := *cfg.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		sched, err := fault.NewSchedule(rt.eng, fc)
		if err != nil {
			return nil, err
		}
		rt.faults = sched
		// The machine registers its crash handler first, so by the time
		// the runtime's handler below runs, the node is already down.
		rt.mach.SetFaults(sched)
		sched.OnCrash(rt.onNodeCrash)
	}
	rt.launcher = cluster.NewLauncher(rt.mach)
	rt.io = adios.NewIO(adios.DefaultDisk())

	all, err := rt.mach.Allocate(cfg.SimNodes + cfg.StagingNodes)
	if err != nil {
		return nil, err
	}
	_, staging, err := all.Split(cfg.SimNodes)
	if err != nil {
		return nil, err
	}
	stagingNodes := staging.Nodes()
	ctl := ControlNodes(S, k)
	if ctl >= len(stagingNodes) {
		return nil, fmt.Errorf("core: %d control-plane nodes (meta + %d shards ×%d) leave no staging nodes for containers (%d total)",
			ctl, S, 1+k, len(stagingNodes))
	}

	// Assign container nodes front-to-back (contiguous blocks keep a
	// container's replicas topologically close); leftovers are spare.
	region := stagingNodes[ctl:]
	rt.stagingNodes = stagingNodes
	next := 0
	nodesFor := map[string][]*cluster.Node{}
	for _, spec := range cfg.Specs {
		n := cfg.Sizes[spec.Name]
		if n <= 0 {
			n = 1
		}
		if next+n > len(region) {
			return nil, fmt.Errorf("core: container sizes exceed %d staging nodes", len(region))
		}
		nodesFor[spec.Name] = region[next : next+n]
		next += n
	}

	// Ring + directory: container→shard by seeded consistent hash, spare
	// nodes round-robin into per-shard pools.
	ring := shardmgr.NewRing(cfg.ShardSeed, S)
	names := make([]string, 0, len(cfg.Specs))
	for _, spec := range cfg.Specs {
		names = append(names, spec.Name)
	}
	rt.dir = shardmgr.NewDirectory(ring, names)
	for _, spec := range cfg.Specs {
		s := rt.dir.ShardOf(spec.Name)
		for _, n := range nodesFor[spec.Name] {
			rt.dir.SetNodeShard(n.ID, s)
		}
	}
	pools := cluster.SplitPool(region[next:], S)
	for s, pool := range pools {
		for _, n := range pool {
			rt.dir.SetNodeShard(n.ID, s)
		}
	}

	// Manager hosts, primaries then standbys. A single shard's manager
	// and standby share the first placement-order nodes with containers.
	hosts := []*cluster.Node{region[0], region[min(1, len(region)-1)]}
	if S > 1 {
		rt.meta = newMetaManager(rt, stagingNodes[0].ID, S)
		hosts = stagingNodes[1:ctl]
	}
	rt.shardPrimary = make([]*GlobalManager, S)
	rt.shardStandby = make([]*GlobalManager, S)
	for s := 0; s < S; s++ {
		// Each primary starts the run as epoch 1; a standby takeover bumps
		// the epoch (see fence.go).
		gm := newGlobalManager(rt, hosts[s].ID, cfg.Policy, pools[s])
		gm.shard = s
		gm.epoch = 1
		rt.shardPrimary[s] = gm
		rt.shardMgrs = append(rt.shardMgrs, gm)
	}
	standbyPolicy := cfg.Policy
	standbyPolicy.KillGMAt = 0 // the standby does not inherit the death sentence
	for s := 0; s < S && k > 0; s++ {
		sb := newGlobalManager(rt, hosts[S+s].ID, standbyPolicy, nil)
		sb.shard = s
		sb.standbyMode = true
		sb.peerEpoch = 1 // the primary's starting epoch
		rt.shardStandby[s] = sb
		rt.shardMgrs = append(rt.shardMgrs, sb)
		primary := rt.shardPrimary[s]
		primary.toStandby = primary.ev.NewBridge(sb.inbox())
		if rt.meta != nil {
			rt.meta.standbyInbox[s] = sb.inbox()
		}
	}
	// Every shard manager — standbys included, since a promoted standby
	// inherits the beat/steal duties — gets an upward bridge to the meta.
	for _, gm := range rt.shardMgrs {
		if rt.meta != nil {
			gm.toMeta = gm.ev.NewBridge(rt.meta.inbox())
		}
	}

	// Channels: producer→stage0, then stage i→stage i+1. The last two
	// stages (CSym, CNA) share the branch channel when the pipeline has
	// the default 4-stage shape: both read the Bonds output.
	branched := len(cfg.Specs) == 4 && cfg.Specs[3].ActivateOnCrack
	nChannels := len(cfg.Specs)
	if branched {
		nChannels = 3
	}
	rt.channels = make([]*datatap.Channel, nChannels)
	for i := range rt.channels {
		consumer := cfg.Specs[i].Name
		home := nodesFor[consumer][0].ID
		rt.channels[i] = datatap.NewChannel(rt.eng, rt.mach,
			fmt.Sprintf("ch.%d.%s", i, consumer),
			datatap.Config{QueueCap: cfg.QueueCap, WriterBufBytes: writerBufBytes,
				HomeNode: home, Delivery: cfg.Delivery})
		rt.channels[i].SetTracer(rt.tracer)
	}

	for i, spec := range cfg.Specs {
		var input, output *datatap.Channel
		var downstream string
		switch {
		case branched && i >= 2:
			input = rt.channels[2] // CSym and CNA both read Bonds output
		case branched && i == 1:
			input, output = rt.channels[1], rt.channels[2]
			downstream = cfg.Specs[2].Name
		default:
			input = rt.channels[i]
			if i+1 < len(rt.channels) {
				output = rt.channels[i+1]
				downstream = cfg.Specs[i+1].Name
			}
		}
		c, err := rt.newContainer(spec, nodesFor[spec.Name], input, output, downstream)
		if err != nil {
			return nil, err
		}
		c.shard = rt.dir.ShardOf(spec.Name)
		rt.containers = append(rt.containers, c)
		rt.byName[spec.Name] = c
	}
	// Optional checkpoint path: a dedicated aggregation container with a
	// relaxed SLA drains the simulation's checkpoint stream to disk.
	if cfg.CheckpointEvery > 0 {
		nCkpt := cfg.CheckpointNodes
		if nCkpt <= 0 {
			nCkpt = 1
		}
		cs := ring.Assign("checkpoint")
		rt.dir.SetShardOf("checkpoint", cs)
		owner := rt.shardPrimary[cs]
		if nCkpt > len(owner.spare) {
			return nil, fmt.Errorf("core: checkpoint container needs %d nodes, shard %d has %d spare",
				nCkpt, cs, len(owner.spare))
		}
		ckptNodes := owner.spare[:nCkpt]
		owner.spare = owner.spare[nCkpt:]
		models := smartpointer.DefaultCostModels()
		spec := ComponentSpec{
			Name:       "checkpoint",
			Kind:       smartpointer.KindHelper,
			Model:      smartpointer.ModelTree,
			Cost:       models[smartpointer.KindHelper],
			Essential:  true, // losing checkpoints violates reliability SLAs
			DiskOutput: true,
			SLAPeriods: cfg.CheckpointEvery, // relaxed: due by the next checkpoint
		}
		// Deliberately best-effort (no Delivery config): a lost checkpoint
		// is superseded by the next one, and retaining multi-GB checkpoint
		// payloads for redelivery would defeat their drain-fast purpose.
		rt.ckptChannel = datatap.NewChannel(rt.eng, rt.mach, "ch.ckpt",
			datatap.Config{QueueCap: cfg.QueueCap, WriterBufBytes: writerBufBytes,
				HomeNode: ckptNodes[0].ID})
		rt.ckptChannel.SetTracer(rt.tracer)
		c, err := rt.newContainer(spec, ckptNodes, rt.ckptChannel, nil, "")
		if err != nil {
			return nil, err
		}
		c.shard = cs
		rt.containers = append(rt.containers, c)
		rt.byName[spec.Name] = c
		rt.channels = append(rt.channels, rt.ckptChannel)
	}

	// Each shard manager's scope: its shard's containers, in stage order.
	// Standbys share the slice — it is read-only after build. A single
	// shard keeps a nil scope, so it also manages containers launched
	// mid-run (LaunchContainer).
	if S > 1 {
		for s := 0; s < S; s++ {
			var scope []*Container
			for _, c := range rt.containers {
				if c.shard == s {
					scope = append(scope, c)
				}
			}
			rt.shardPrimary[s].scope = scope
			if sb := rt.shardStandby[s]; sb != nil {
				sb.scope = scope
			}
		}
	}

	for _, c := range rt.containers {
		c.start()
		rt.shardPrimary[c.shard].connect(c)
		if sb := rt.shardStandby[c.shard]; sb != nil {
			sb.connect(c)
		}
		if rt.faults != nil && !cfg.Policy.DisableSelfHealing {
			c.watchReplicas()
		}
	}
	if err := rt.buildSubscribers(cfg); err != nil {
		return nil, err
	}
	if rt.meta != nil {
		rt.eng.Go("meta-manager", rt.meta.run)
	}
	mgrName, sbName := "global-manager", "standby-manager"
	for s := 0; s < S; s++ {
		if S > 1 {
			mgrName, sbName = fmt.Sprintf("shard-%d-manager", s), fmt.Sprintf("shard-%d-standby", s)
		}
		rt.eng.Go(mgrName, rt.shardPrimary[s].run)
		if sb := rt.shardStandby[s]; sb != nil {
			rt.eng.Go(sbName, sb.run)
		}
	}
	rt.eng.Go("lammps-producer", rt.producer)
	return rt, nil
}

// producer drives the simulated LAMMPS run into the first channel.
func (rt *Runtime) producer(p *sim.Proc) {
	group := rt.io.DeclareGroup("lammps.out")
	group.UseDataTap(rt.channels[0].NewWriter(0)) // sim partition node 0
	w := lammps.Workload{
		Scale:           rt.cfg.Scale,
		OutputPeriod:    rt.cfg.OutputPeriod,
		Steps:           rt.cfg.Steps,
		CrackStep:       rt.cfg.CrackStep,
		CheckpointEvery: rt.cfg.CheckpointEvery,
		OnStep: func(step int64, sw *adios.StepWriter) {
			sw.SetAttr(AttrBirth, fmt.Sprintf("%d", int64(rt.eng.Now())))
		},
	}
	if rt.cfg.CrackStep == 0 && rt.cfg.Steps > 0 {
		w.CrackStep = 0
	}
	if rt.cfg.CrackStep < 0 {
		w.CrackStep = -1
	}
	var ckptGroup *adios.Group
	if rt.ckptChannel != nil {
		ckptGroup = rt.io.DeclareGroup("lammps.ckpt")
		ckptGroup.UseDataTap(rt.ckptChannel.NewWriter(0))
	}
	n, err := w.Run(p, group, ckptGroup)
	if err != nil {
		rt.fail(err)
	}
	rt.emitted = n
	rt.producerDone = true
}

// Run executes the scenario to its virtual-time horizon, then shuts the
// pipeline down cleanly.
func (rt *Runtime) Run() (*Result, error) {
	horizon := sim.Time(rt.cfg.Steps)*rt.cfg.OutputPeriod + rt.cfg.DrainTime
	rt.eng.RunUntil(horizon)
	rt.shutdown()
	rt.eng.Run()
	if rt.firstErr != nil {
		return nil, rt.firstErr
	}
	return rt.result(), nil
}

// shutdown closes channels and mailboxes so every process exits.
func (rt *Runtime) shutdown() {
	for _, ch := range rt.channels {
		ch.Resume() // unblock any writer parked on a pause
		ch.Close()
	}
	for _, c := range rt.containers {
		for _, r := range c.replicas {
			r.stop = true
		}
		c.mailbox.Close()
		c.toGM.CloseBridge()
		if c.staleGM != nil {
			c.staleGM.CloseBridge()
		}
	}
	// Every manager, deposed primaries included: a loop left open
	// outlives the shutdown and the post-horizon drain never finishes.
	for _, gm := range rt.shardMgrs {
		gm.closeBridges()
		gm.ctl.Close()
		gm.rsp.Close()
	}
	if rt.meta != nil {
		rt.meta.close()
	}
}

// Shutdown terminates the pipeline early and drains all processes. It is
// for callers driving the runtime step-by-step (microbenchmarks); Run
// calls the same path internally.
func (rt *Runtime) Shutdown() {
	rt.shutdown()
	rt.eng.Run()
}

// TakeSpare removes up to n nodes from shard 0's acting manager's spare
// pool (for experiments that drive resize protocols directly).
func (rt *Runtime) TakeSpare(n int) []*cluster.Node {
	gm := rt.shardPrimary[0]
	n = min(n, len(gm.spare))
	nodes := gm.spare[:n]
	gm.spare = gm.spare[n:]
	return nodes
}

// onNodeCrash is the runtime-level crash handler, invoked by the fault
// schedule after the machine has taken the node down. It kills the
// software resident on the node: replica processes get their stop flags
// and in-flight computations aborted (the interrupted step requeues, so
// a survivor can redo it), dead writer endpoints are detached from their
// channels, queued descriptors whose payload died with the node are
// invalidated, and a manager whose node died stops serving.
func (rt *Runtime) onNodeCrash(id int) {
	rt.tracer.Instant(0, "fault", "crash").Node(id).End()
	rt.tracer.Trigger(fmt.Sprintf("crash:node%d", id))
	for _, ch := range rt.channels {
		ch.InvalidateNode(id)
	}
	for _, c := range rt.containers {
		for _, r := range c.replicas {
			if r.node.ID != id {
				continue
			}
			rt.crashVictims = append(rt.crashVictims, CrashVictim{
				T: rt.eng.Now(), Node: id, Container: c.Name(),
				Manager: c.mgrEV.Node() == id,
			})
			r.stop = true
			if r.busy && r.abort != nil {
				r.abort.Fire()
			}
			if r.writer != nil && c.output != nil {
				c.output.RemoveWriter(r.writer)
			}
			// Attachment order, not map order: RemoveWriter can release a
			// parked process into the event schedule.
			for _, tap := range c.taps {
				if w, ok := r.tapWriters[tap]; ok {
					tap.RemoveWriter(w)
				}
			}
		}
		if c.mgrEV.Node() == id && c.state != StateOffline {
			c.mailbox.Close()
		}
	}
	for _, gm := range rt.shardMgrs {
		if gm.node == id {
			gm.dead = true
		}
	}
	if rt.meta != nil && rt.meta.node == id {
		rt.meta.dead = true
	}
}

// LostStep records one step the data plane knowingly failed to deliver: a
// refused write on a live channel. Shutdown-refused writes are not
// recorded — they are drain truncation, not loss.
type LostStep struct {
	Container string
	Step      int64
	Reason    string
}

// maxLostSteps bounds the loss log; the count of further losses is all
// the oracle needs, and the first entries are what a human debugs from.
const maxLostSteps = 64

// noteDeliveryLoss records a knowingly-lost step for the delivery oracle.
func (rt *Runtime) noteDeliveryLoss(container string, step int64, reason string) {
	if len(rt.deliveryLost) < maxLostSteps {
		rt.deliveryLost = append(rt.deliveryLost,
			LostStep{Container: container, Step: step, Reason: reason})
	}
	rt.tracer.Instant(0, "datatap", "step-lost").Container(container).Step(step).
		Attr("reason", reason).End()
}

// fail records the first runtime error.
func (rt *Runtime) fail(err error) {
	if rt.firstErr == nil {
		rt.firstErr = err
	}
}

// recordSample feeds the experiment recorder. Heartbeat pressure samples
// (Step < 0) go to separate series so the per-step latency curves match
// the paper's figures.
func (rt *Runtime) recordSample(s monitor.Sample) {
	t := s.At
	if s.Step < 0 {
		rt.rec.Series("pressure."+s.Container).Add(t, s.Latency.Seconds())
		rt.rec.Series("queue."+s.Container).Add(t, float64(s.QueueLen))
		return
	}
	rt.rec.Series("latency."+s.Container).Add(t, s.Latency.Seconds())
	rt.rec.Series("queue."+s.Container).Add(t, float64(s.QueueLen))
	rt.rec.Series("service."+s.Container).Add(t, s.Service.Seconds())
}

// recordExit notes a step leaving the pipeline. Checkpoint flushes go to
// their own series so the end-to-end analytics latency stays clean.
func (rt *Runtime) recordExit(t sim.Time, fi FrameInfo) {
	if fi.Kind == "checkpoint" {
		if fi.Birth > 0 {
			rt.rec.Series("ckpt.flush").Add(t, (t - fi.Birth).Seconds())
		}
		return
	}
	rt.exits++
	if fi.Birth > 0 {
		rt.rec.Series("e2e").Add(t, (t - fi.Birth).Seconds())
	}
}

// upstreamOf returns the container feeding c (nil if c is fed by the
// simulation itself).
func (rt *Runtime) upstreamOf(c *Container) *Container {
	for _, u := range rt.containers {
		if u == c {
			continue
		}
		if u.output != nil && u.output == c.input {
			return u
		}
	}
	return nil
}

// isDownstreamOf reports whether d consumes (transitively) what c
// produces.
func (rt *Runtime) isDownstreamOf(c, d *Container) bool {
	if c == d {
		return false
	}
	cur := c
	for depth := 0; depth < len(rt.containers); depth++ {
		if cur.output == nil {
			return false
		}
		var next *Container
		for _, cand := range rt.containers {
			if cand.input == cur.output {
				if cand == d {
					return true
				}
				if next == nil {
					next = cand
				}
			}
		}
		if next == nil {
			return false
		}
		cur = next
	}
	return false
}

// downstreamClosure returns c plus every *active online* container
// transitively consuming its output, in pipeline order.
func (rt *Runtime) downstreamClosure(c *Container) []*Container {
	affected := []*Container{c}
	frontier := map[*datatap.Channel]bool{}
	if c.output != nil {
		frontier[c.output] = true
	}
	for _, cand := range rt.containers {
		if cand == c || !cand.Active() {
			continue
		}
		if cand.input != nil && frontier[cand.input] {
			affected = append(affected, cand)
			if cand.output != nil {
				frontier[cand.output] = true
			}
		}
	}
	return affected
}

// --- results ---

// Result summarizes a completed run for the experiment harness.
type Result struct {
	Recorder *metrics.Recorder
	Actions  []Action
	// Emitted is the number of steps the simulation wrote.
	Emitted int
	// ProducerFinished reports whether the simulation completed all its
	// steps (false when backpressure still blocked it at the horizon).
	ProducerFinished bool
	// Exits is the number of steps that left the pipeline (analyzed or
	// provenance-stamped to disk).
	Exits int64
	// Dropped counts steps discarded from queues at offline time.
	Dropped int
	// WriterBlocked is total virtual time the simulation's writer spent
	// blocked (the application-blocking metric containers exist to
	// minimize).
	WriterBlocked sim.Time
	// WriterStalled is only the *parked* portion of the simulation
	// writer's time — pause waits, buffer-space waits, full-queue waits,
	// push retry backoff — excluding transfer costs. The subscriber SLA
	// oracle asserts it stays zero under subscriber-only faults: no
	// dashboard, however slow or dead, may ever stall the simulation.
	WriterStalled sim.Time
	// States maps container name to final state ("online"/"offline").
	States map[string]string
	// FinalSizes maps container name to final node count.
	FinalSizes map[string]int
	// Spare is the final spare node count.
	Spare int
	// Provenance maps container name to the provenance attribute it
	// stamped on disk output (empty if none).
	Provenance map[string]string
	// Suspects lists containers the acting managers gave up on (control
	// rounds exhausted their retries), sorted. A deposed or dead primary's
	// verdicts are left out.
	Suspects []string
	// FaultStats summarizes injected-fault activity (zero value on
	// fault-free runs).
	FaultStats fault.Stats
	// DownNodes lists the machine nodes that crashed during the run.
	DownNodes []int
	// Rounds logs every control-round send attempt with the issuing
	// manager's node and epoch (chaos single-writer oracle).
	Rounds []RoundRecord
	// Trades logs every D2T trade transaction's outcome and per-participant
	// decisions (chaos same-decision oracle).
	Trades []TradeRecord
	// CrashVictims lists the replicas lost to node crashes (chaos
	// heal-completeness oracle).
	CrashVictims []CrashVictim
	// Delivery snapshots each channel's step ledger at run end (chaos
	// delivery oracle). Empty entries are omitted-mode channels' zeroes.
	Delivery []datatap.DeliverySnapshot
	// DeliveryLost lists steps the data plane knowingly failed to deliver
	// (refused writes on live channels), bounded at maxLostSteps.
	DeliveryLost []LostStep
	// Shards holds the per-shard control-plane summary on sharded runs
	// (nil on single-shard runs).
	Shards []ShardSummary
	// Subscribers snapshots each subscriber's conservation ledger at run
	// end (chaos sub-conservation oracle); nil without a subscriber fleet.
	Subscribers []datatap.SubSnapshot
	// SubHub aggregates the fan-out hub's counters (zero value without a
	// subscriber fleet).
	SubHub datatap.SubHubStats
}

// ShardSummary is one shard's row in the sharded run's control-plane
// summary table. Spare/Epoch/Actions/Suspects reflect the shard's acting
// manager at run end (the promoted standby after a failover).
type ShardSummary struct {
	Shard      int
	Containers int
	Spare      int
	Epoch      int64
	StolenIn   int
	StolenOut  int
	Actions    int
	Suspects   int
}

func (rt *Runtime) result() *Result {
	res := &Result{
		Recorder:         rt.rec,
		Emitted:          rt.emitted,
		ProducerFinished: rt.producerDone,
		Exits:            rt.exits,
		Dropped:          rt.dropped,
		WriterBlocked:    rt.channels[0].Stats().WriterBlocked,
		WriterStalled:    rt.channels[0].Stats().WriterStalled,
		States:           map[string]string{},
		FinalSizes:       map[string]int{},
		Provenance:       map[string]string{},
	}
	// The control plane's log: actions across every manager (a deposed or
	// dead primary's included) plus the meta, time-ordered. Suspects and
	// spare come from the acting managers only: a deposed or partitioned
	// primary's verdicts are stale.
	var acts []Action
	for _, gm := range rt.shardMgrs {
		acts = append(acts, gm.Actions()...)
	}
	if rt.meta != nil {
		acts = append(acts, rt.meta.Actions()...)
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].T < acts[j].T })
	res.Actions = acts
	for _, acting := range rt.shardPrimary {
		res.Suspects = append(res.Suspects, acting.Suspects()...)
		res.Spare += acting.Spare()
	}
	sort.Strings(res.Suspects)
	res.Suspects = slices.Compact(res.Suspects)
	if rt.meta != nil {
		for s, acting := range rt.shardPrimary {
			in, out := rt.dir.Steals(s)
			nc := 0
			for _, c := range rt.containers {
				if c.shard == s {
					nc++
				}
			}
			res.Shards = append(res.Shards, ShardSummary{
				Shard: s, Containers: nc, Spare: acting.Spare(),
				Epoch: acting.Epoch(), StolenIn: in, StolenOut: out,
				Actions: len(acting.Actions()), Suspects: len(acting.Suspects()),
			})
		}
	}
	for _, ch := range rt.channels {
		res.Delivery = append(res.Delivery, ch.DeliverySnapshot())
	}
	res.DeliveryLost = append([]LostStep(nil), rt.deliveryLost...)
	res.Subscribers = rt.subHub.Snapshots()
	res.SubHub = rt.subHub.Stats()
	res.Rounds = append([]RoundRecord(nil), rt.rounds...)
	res.Trades = append([]TradeRecord(nil), rt.trades...)
	res.CrashVictims = append([]CrashVictim(nil), rt.crashVictims...)
	if rt.faults != nil {
		res.FaultStats = rt.faults.Stats()
		res.DownNodes = rt.faults.DownNodes()
	}
	for _, c := range rt.containers {
		res.States[c.Name()] = c.State().String()
		res.FinalSizes[c.Name()] = c.Size()
		if c.provenance != "" {
			res.Provenance[c.Name()] = c.provenance
		}
	}
	return res
}

// Container returns a container by name (for tests and experiments).
func (rt *Runtime) Container(name string) *Container { return rt.byName[name] }

// Containers returns the pipeline's containers in stage order (custom
// policies iterate this).
func (rt *Runtime) Containers() []*Container {
	return append([]*Container(nil), rt.containers...)
}

// Sharded reports whether the run has more than one shard (and so a
// meta-manager).
func (rt *Runtime) Sharded() bool { return rt.meta != nil }

// Meta returns the meta-manager (nil on single-shard runs).
func (rt *Runtime) Meta() *MetaManager { return rt.meta }

// Directory returns the shard ownership ledger.
func (rt *Runtime) Directory() *shardmgr.Directory { return rt.dir }

// ShardManager returns shard s's acting manager (the promoted standby
// after a failover).
func (rt *Runtime) ShardManager(s int) *GlobalManager { return rt.shardPrimary[s] }

// Managers returns every shard primary and standby in creation order
// (primaries first), whether acting, deposed or dead. The meta-manager is
// separate (Meta).
func (rt *Runtime) Managers() []*GlobalManager {
	return append([]*GlobalManager(nil), rt.shardMgrs...)
}

// Channels returns the pipeline's data channels in stage order (the chaos
// conservation oracle audits their byte ledgers).
func (rt *Runtime) Channels() []*datatap.Channel {
	return append([]*datatap.Channel(nil), rt.channels...)
}

// Engine returns the simulation engine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Machine returns the machine model.
func (rt *Runtime) Machine() *cluster.Machine { return rt.mach }

// Tracer returns the trace recorder (nil when Config.Trace is unset).
func (rt *Runtime) Tracer() *trace.Recorder { return rt.tracer }

// Config returns the effective (default-filled) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }
