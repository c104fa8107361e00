package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/evpath"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/txn"
)

// PolicyConfig tunes the global manager's SLA enforcement.
type PolicyConfig struct {
	// DisableManagement turns the policy off (baseline runs for the
	// figures' "unmanaged" comparison).
	DisableManagement bool
	// DisableOffline keeps the policy from pruning containers (ablation).
	DisableOffline bool
	// DisableStealing keeps the policy from decreasing other containers
	// (ablation: spare nodes only).
	DisableStealing bool
	// OfflinePatience is how many consecutive ticks the overflow
	// condition must persist before an unsatisfiable bottleneck is
	// pruned (default 4) — transients should not cost a pipeline stage.
	OfflinePatience int
	// TransactionalTrades wraps each resource steal in a D2T control
	// transaction (paper §III-A(5)): the nodes removed from the victim
	// are guaranteed to be added to the recipient or returned. Aborted
	// trades roll back.
	TransactionalTrades bool
	// InjectTradeFailures makes the first N trade transactions fail (a
	// participant goes silent), exercising the rollback path.
	InjectTradeFailures int
	// KillGMAt, when > 0, makes the primary global manager die (stop
	// serving) at that virtual time — the failure the standby exists
	// for. Death is immediate: an in-flight control round is abandoned
	// mid-call, exactly the window the standby's takeover must tolerate.
	KillGMAt sim.Time
	// CallTimeout bounds each synchronous control round with a container
	// (default 30 s: above the worst-case round, which includes an
	// aprun launch of up to 27 s — and sized so the full retry budget
	// of 30+60+120 s fits inside a default-length run, leaving the GM
	// time to suspect a dead manager and keep managing the rest). A
	// round that misses the deadline is retried with the same sequence
	// number; container managers deduplicate, so a spuriously-retried
	// round is answered from the cache, never re-executed — which is
	// what makes the tighter first deadline safe.
	CallTimeout sim.Time
	// DisableFencing turns off epoch fencing of control rounds (see
	// fence.go), restoring the legacy failover behavior whose healed-
	// partition split brain the chaos regressions reproduce.
	DisableFencing bool
	// DisableSelfHealing turns off the per-container replica watch and
	// restart protocol (ablation arm of the fault experiments). It has no
	// effect when no fault schedule is configured — the watch only runs
	// under fault injection.
	DisableSelfHealing bool
	// CustomTick, when non-nil, replaces the built-in policy evaluation
	// each management interval — the user-defined management policies
	// the paper's user-space design exists to permit. The function may
	// use the GlobalManager's exported operations (Query, Increase,
	// Decrease, Offline, SetOutput, Activate, LaunchContainer) and its
	// Aggregator for monitoring state. Crack-branch handling still runs
	// before it.
	CustomTick func(gm *GlobalManager, p *sim.Proc)
}

// The built-in policy's fixed tuning. The management interval is the
// run's output period (Config.OutputPeriod).
const (
	// minSamples is how many samples a container's window needs before
	// it can be diagnosed.
	minSamples = 2
	// triggerQueueLen is the input backlog that makes a container a
	// management candidate.
	triggerQueueLen = 2
	// cooldownIntervals is the minimum gap between management actions.
	cooldownIntervals = 2
	// windowIntervals bounds the monitoring windows.
	windowIntervals = 10
	// callRetries is how many extra rounds a timed-out call gets before
	// the container is marked suspect. Each retry doubles the round
	// deadline (exponential backoff), so a merely slow container gets
	// progressively more room while a dead one is bounded.
	callRetries = 2
	// silencePatience is how many intervals of silence an online, active
	// container is allowed before the GM probes it with a liveness Query
	// (see probeSilent).
	silencePatience = 4
)

// offlineQueueLen is the backlog at which an unsatisfiable bottleneck is
// taken offline: a third of the channel queue, at least 4.
func offlineQueueLen(queueCap int) int { return max(4, queueCap/3) }

func (pc PolicyConfig) withDefaults() PolicyConfig {
	if pc.OfflinePatience <= 0 {
		pc.OfflinePatience = 4
	}
	if pc.CallTimeout <= 0 {
		pc.CallTimeout = 30 * sim.Second
	}
	return pc
}

// tradeVoteTimeout bounds each D2T vote round inside a transactional
// trade: CallTimeout/30, i.e. 1 s at the stock 30 s round deadline, so it
// scales with the scenario's control-round tuning instead of being pinned
// to a wall-clock constant.
func (pc PolicyConfig) tradeVoteTimeout() sim.Time { return pc.CallTimeout / 30 }

// Action records one management decision for the experiment timelines.
type Action struct {
	T      sim.Time
	Kind   string // "increase", "decrease", "offline", "activate", "set_output"
	Target string
	N      int
	Detail string
}

// GlobalManager enforces cross-container SLAs: bottleneck detection from
// the monitoring overlay, resource trades between containers, and offline
// transitions when the staging area cannot sustain the load (paper
// §III-D).
type GlobalManager struct {
	rt   *Runtime
	node int
	ev   *evpath.Manager
	// root receives all container traffic; its handler routes protocol
	// responses to rsp and everything else (monitoring samples, crack
	// notices) to ctl, so the policy pump and an in-flight synchronous
	// call never compete for the same mailbox.
	root   *evpath.Stone
	ctl    *evpath.Mailbox
	rsp    *evpath.Mailbox
	agg    *monitor.Aggregator
	policy PolicyConfig

	toContainer   map[string]*evpath.Stone
	spare         []*cluster.Node
	seq           int64
	lastAction    sim.Time
	actionTaken   bool
	crackSeen     bool
	branchDone    bool
	overflowTicks map[string]int
	// suspect marks containers whose control rounds exhausted their retry
	// budget; the policy skips them instead of blocking on them again.
	suspect map[string]bool
	// lastHeard is when the GM last had proof of life from each
	// container — a monitoring sample, an upward notice, or an answered
	// control round. The silence probe reads it.
	lastHeard map[string]sim.Time
	// resendRoute maps a consumer container's name to the upstream
	// container feeding it; a GapNotice from the consumer turns into a
	// ResendReq round to that upstream at the next policy tick.
	resendRoute map[string]string
	// pendingResend marks upstream containers owed a ResendReq round.
	pendingResend map[string]bool
	// pendingSubs dedupes reconnect notices per subscriber (keeping the
	// highest generation); each owes a SubResume round at the next tick.
	pendingSubs map[string]*SubNotice
	// dead is set when this manager's node crashes or KillGMAt fires; a
	// dead manager abandons whatever it is doing, including mid-call.
	dead bool
	// toStandby carries liveness beacons to the standby manager.
	toStandby *evpath.Stone
	// lastPrimaryBeat is when the standby last heard the primary.
	lastPrimaryBeat sim.Time

	// Epoch fencing state (see fence.go). epoch is this manager's fencing
	// epoch (primary starts at 1, a standby at 0 until takeover);
	// peerEpoch is the highest epoch heard in a peer's heartbeat;
	// standbyMode is true while the manager is a watching standby;
	// deposed is set once a higher epoch fences this manager out;
	// toDeposed bridges a DemoteNotice back to a stale peer; fencedPeer
	// records that the demote action was already logged.
	epoch       int64
	peerEpoch   int64
	standbyMode bool
	deposed     bool
	toDeposed   *evpath.Stone
	fencedPeer  bool

	// Sharded control plane state (see shard.go). shard is this manager's
	// shard; scope is the subset of containers it manages (nil = all, the
	// single-shard case); toMeta bridges to the meta-manager (nil on a
	// single shard); shardSeq numbers outbound shard round messages;
	// stealPending latches at-most-one in-flight cross-shard steal;
	// crackRelayed dedupes the crack relay; peerBridges caches bridges to
	// other managers' inboxes (peerOrder keeps close deterministic).
	shard        int
	scope        []*Container
	toMeta       *evpath.Stone
	shardSeq     int64
	stealPending bool
	crackRelayed bool
	peerBridges  map[*evpath.Stone]*evpath.Stone
	peerOrder    []*evpath.Stone

	actions []Action
}

// Actions returns the management decisions taken so far.
func (gm *GlobalManager) Actions() []Action { return append([]Action(nil), gm.actions...) }

// Suspects returns the names of containers marked suspect, sorted.
func (gm *GlobalManager) Suspects() []string {
	var out []string
	for name := range gm.suspect {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Spare returns the current spare staging node count.
func (gm *GlobalManager) Spare() int { return len(gm.spare) }

// SpareNodes returns the spare pool (shared slice; do not mutate).
func (gm *GlobalManager) SpareNodes() []*cluster.Node { return gm.spare }

// Aggregator exposes the monitoring state (for tests and experiments).
func (gm *GlobalManager) Aggregator() *monitor.Aggregator { return gm.agg }

func newGlobalManager(rt *Runtime, node int, policy PolicyConfig, spare []*cluster.Node) *GlobalManager {
	gm := &GlobalManager{
		rt:            rt,
		node:          node,
		policy:        policy,
		spare:         spare,
		toContainer:   make(map[string]*evpath.Stone),
		overflowTicks: make(map[string]int),
		suspect:       make(map[string]bool),
		lastHeard:     make(map[string]sim.Time),
		resendRoute:   make(map[string]string),
		pendingResend: make(map[string]bool),
		pendingSubs:   make(map[string]*SubNotice),
	}
	if policy.KillGMAt > 0 {
		// Death is an engine event, not a loop-top check: the manager can
		// die while parked mid-call, which is the race the standby
		// takeover must survive.
		rt.eng.At(policy.KillGMAt, func() { gm.dead = true })
	}
	gm.ev = evpath.NewManager(rt.eng, rt.mach, node)
	gm.ev.SetTracer(rt.tracer)
	gm.ctl = evpath.NewMailbox(gm.ev)
	gm.rsp = evpath.NewMailbox(gm.ev)
	gm.root = gm.ev.NewStone(func(ev *evpath.Event) {
		if ev.Type == msgResp {
			gm.rsp.Stone.Submit(ev)
		} else {
			gm.ctl.Stone.Submit(ev)
		}
	})
	gm.agg = monitor.NewAggregator(windowIntervals * rt.cfg.OutputPeriod)
	return gm
}

// connect builds the control bridge to a container's mailbox.
func (gm *GlobalManager) connect(c *Container) {
	gm.toContainer[c.Name()] = gm.ev.NewBridge(c.mailbox.Stone)
}

// inbox returns the stone containers bridge their upward traffic to.
func (gm *GlobalManager) inbox() *evpath.Stone { return gm.root }

// closeBridges closes the manager's outgoing bridges at shutdown, in
// sorted container order: their backlogs still drain, later submits drop.
func (gm *GlobalManager) closeBridges() {
	names := make([]string, 0, len(gm.toContainer))
	for name := range gm.toContainer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gm.toContainer[name].CloseBridge()
	}
	if gm.toStandby != nil {
		gm.toStandby.CloseBridge()
	}
	if gm.toDeposed != nil {
		gm.toDeposed.CloseBridge()
	}
	if gm.toMeta != nil {
		gm.toMeta.CloseBridge()
	}
	for _, b := range gm.peerOrder {
		b.CloseBridge()
	}
}

// run is the global manager process: pump monitoring/control traffic and
// tick the policy at each interval. A standby only pumps, recording the
// primary's heartbeats, until the primary has been silent for three
// intervals; then it takes over and runs on as the active manager. No
// heartbeat yet means the primary has not started beating, so the grace
// period runs from t=0.
func (gm *GlobalManager) run(p *sim.Proc) {
	grace := 3 * gm.rt.cfg.OutputPeriod
	for {
		if gm.dead {
			return // the primary died silently
		}
		if gm.deposed {
			// Fenced out by a higher epoch: demote to a passive standby.
			gm.runDeposed(p)
			return
		}
		if gm.toStandby != nil {
			gm.toStandby.Submit(&evpath.Event{Type: msgGMHeartbeat,
				Size: ctlMsgBytes,
				Data: &GMHeartbeat{At: p.Now(), Epoch: gm.epoch, Inbox: gm.root}})
		}
		if gm.toMeta != nil && !gm.standbyMode {
			gm.beatMeta()
		}
		deadline := p.Now() + gm.rt.cfg.OutputPeriod
		for p.Now() < deadline {
			ev, ok := gm.ctl.RecvTimeout(p, deadline-p.Now())
			if !ok {
				if gm.ctl.Closed() {
					return
				}
				break
			}
			if gm.dead {
				return
			}
			gm.dispatch(p, ev)
		}
		if gm.ctl.Closed() || gm.dead {
			return
		}
		if gm.standbyMode {
			if p.Now()-gm.lastPrimaryBeat > grace {
				gm.takeOver(p)
			}
			continue
		}
		if gm.deposed {
			continue // the loop top demotes to the passive pump
		}
		// Data-plane repair is not a policy decision: gap-triggered resends
		// and subscriber reconnects run even when management is disabled.
		gm.issueResends(p)
		gm.issueSubResumes(p)
		if gm.policy.DisableManagement {
			continue
		}
		if gm.crackSeen && !gm.branchDone {
			gm.branch(p)
		}
		if gm.policy.CustomTick != nil {
			gm.policy.CustomTick(gm, p)
			continue
		}
		gm.tick(p)
	}
}

// dispatch routes one monitoring/notice event (responses never reach this
// path; the overlay split sends them to the response mailbox). It runs on
// both the primary's pump and the deposed pump, and handling an event
// must not park the manager process: dispatch and everything it calls
// run in a no-park section, where the kernel panics on any wait.
func (gm *GlobalManager) dispatch(p *sim.Proc, ev *evpath.Event) {
	p.BeginNoPark()
	defer p.EndNoPark()
	if gm.shardDispatch(p, ev) {
		return
	}
	switch data := ev.Data.(type) {
	case monitor.Sample:
		gm.agg.Ingest(data)
		gm.lastHeard[data.Container] = p.Now()
	case *CrackNotice:
		gm.crackSeen = true
		gm.lastHeard[data.From] = p.Now()
		gm.relayCrack(data)
	case *GapNotice:
		gm.lastHeard[data.From] = p.Now()
		if up, ok := gm.resendRoute[data.From]; ok {
			if _, local := gm.toContainer[up]; !local && gm.toMeta != nil {
				// Cross-shard gap: the upstream container belongs to
				// another shard, so the writer-side manager must issue the
				// ResendReq round. Relay through the meta-manager.
				gm.relayGap(up)
			} else {
				// Defer the round to the tick: dispatch must not park, and
				// a synchronous round does.
				gm.pendingResend[up] = true
			}
		}
	case *GMHeartbeat:
		gm.lastPrimaryBeat = data.At
		if data.Epoch > gm.peerEpoch {
			gm.peerEpoch = data.Epoch
		}
		if gm.rt.fencingOn() && !gm.standbyMode && !gm.deposed &&
			data.Epoch < gm.epoch && data.Inbox != nil {
			// A stale peer — a primary that outlived its own failover —
			// is still beating. Tell it to stand down.
			if gm.toDeposed == nil {
				gm.toDeposed = gm.ev.NewBridge(data.Inbox)
			}
			gm.toDeposed.Submit(&evpath.Event{Type: msgDemote,
				Size: ctlMsgBytes, Data: &DemoteNotice{Epoch: gm.epoch}})
			if !gm.fencedPeer {
				gm.fencedPeer = true
				gm.record(p, Action{T: p.Now(), Kind: "fence", Target: "global-manager",
					Detail: fmt.Sprintf("demoting stale peer epoch %d (own epoch %d)",
						data.Epoch, gm.epoch)})
			}
		}
	case *DemoteNotice:
		if gm.rt.fencingOn() && data.Epoch > gm.epoch {
			gm.depose(p, data.Epoch, "demote notice")
		}
	case *SubNotice:
		gm.lastHeard[data.From] = p.Now()
		gm.rt.tracer.Instant(ev.Span, "ctl", "sub-notice").
			Container(data.From).Node(gm.node).AttrInt("seq", data.Gen).End()
		// Dedupe per subscriber on the reconnect generation: a reconnect
		// storm collapses to one resume round per subscriber. Defer the
		// round to the tick — dispatch must not park.
		if cur, ok := gm.pendingSubs[data.SubID]; !ok || data.Gen > cur.Gen {
			gm.pendingSubs[data.SubID] = data
		}
	case *SpareReq:
		gm.grantSpare(data)
		gm.lastHeard[data.From] = p.Now()
	case *HealNotice:
		gm.lastHeard[data.From] = p.Now()
		detail := fmt.Sprintf("replaced %d crashed node(s)", data.Lost)
		kind := "heal"
		if data.Degraded {
			kind = "degrade"
			detail = fmt.Sprintf("no spare for %d crashed node(s); continuing at size %d",
				data.Lost, data.Size)
		}
		gm.record(p, Action{T: p.Now(), Kind: kind, Target: data.From,
			N: data.Size, Detail: detail})
	}
}

// grantSpare answers a local manager's replica-restart request: pop up to
// N nodes from the spare pool and send them down the container's control
// bridge. An empty grant tells the requester to degrade. Runs from
// dispatch, so it inherits the pump's must-not-park obligation.
func (gm *GlobalManager) grantSpare(req *SpareReq) {
	if gm.deposed {
		return // a fenced manager's pool is no longer authoritative
	}
	stone, ok := gm.toContainer[req.From]
	if !ok {
		return
	}
	take := req.N
	if take > len(gm.spare) {
		take = len(gm.spare)
	}
	var grant []*cluster.Node
	if take > 0 {
		grant = append(grant, gm.spare[:take]...)
		gm.spare = gm.spare[take:]
	}
	if take < req.N {
		// The pool could not cover the request. Ask the meta-manager for
		// nodes from another shard so the next heal can be served in full
		// (fire-and-forget; no-op on a single shard).
		gm.requestSteal(req.N - take)
	}
	stone.Submit(&evpath.Event{Type: msgSpareGrant, Size: ctlMsgBytes,
		Data: &SpareGrant{Seq: req.Seq, Nodes: grant}})
}

// answers reports whether a response belongs to the current round. Seqs
// come from the runtime-wide rt.ctlSeq, so the seq alone identifies the
// round; a FenceResp carrying it is handled by callRound's fence arm.
func (gm *GlobalManager) answers(v any) bool {
	m, ok := v.(roundMsg)
	return ok && m.hdr().Seq == gm.seq
}

// call performs one synchronous control round with a container: send the
// request, pump overlay traffic until the matching response arrives. Each
// round has a deadline; a round that misses it is retried with the SAME
// sequence number (container managers deduplicate, so mutating requests
// never execute twice) and a doubled deadline. When the retry budget runs
// out the container is marked suspect and the call gives up — the policy
// tick proceeds instead of blocking forever on a dead container.
func (gm *GlobalManager) call(p *sim.Proc, target string, req roundReq) any {
	v := gm.callRound(p, target, req)
	if v != nil {
		// An answered round is proof of life for the silence probe.
		gm.lastHeard[target] = p.Now()
	}
	return v
}

func (gm *GlobalManager) callRound(p *sim.Proc, target string, req roundReq) any {
	// Sequence numbers come from a runtime-wide counter so the primary's
	// and the standby's rounds never collide in a container's dedup cache
	// across a failover.
	if gm.deposed {
		return nil // a fenced manager issues no rounds
	}
	gm.rt.ctlSeq++
	gm.seq = gm.rt.ctlSeq
	stone, ok := gm.toContainer[target]
	if !ok {
		gm.rt.fail(fmt.Errorf("core: no control bridge to container %q", target))
		return nil
	}
	if gm.suspect[target] {
		return nil
	}
	h := req.hdr()
	h.Seq, h.Epoch = gm.seq, gm.epoch
	kind := strings.TrimPrefix(req.kind(), "ctl.")
	timeout := gm.policy.CallTimeout
	for attempt := 0; attempt <= callRetries; attempt++ {
		if gm.dead {
			return nil
		}
		// Each attempt is its own round span; the container-side serve
		// chains from it through the event's typed span context.
		sp := gm.rt.tracer.Begin(0, "ctl", roundSpans[req.kind()].round).
			Container(target).Node(gm.node).
			AttrInt("attempt", int64(attempt)).AttrInt("seq", gm.seq)
		if gm.rt.Sharded() {
			sp.AttrInt("shard", int64(gm.shard))
		}
		ev := &evpath.Event{Type: req.kind(), Size: ctlMsgBytes, Data: req}
		ev.Span = sp.ID()
		gm.rt.noteRound(RoundRecord{T: p.Now(), Epoch: gm.epoch, Seq: gm.seq,
			Node: gm.node, Target: target, Kind: kind, Retry: attempt,
			Shard: gm.ShardID()})
		stone.Submit(ev)
		deadline := p.Now() + timeout
		for {
			rev, ok := gm.rsp.RecvTimeout(p, deadline-p.Now())
			if !ok {
				if gm.rsp.Closed() {
					// Shutdown mid-round. A receive fails only on an empty
					// mailbox, and a closed one takes no more events, so
					// nothing is left in it to keep.
					sp.Attr("outcome", "shutdown").End()
					return nil
				}
				sp.Attr("outcome", "timeout").End()
				break // round deadline; retry with backoff
			}
			if gm.dead {
				sp.Attr("outcome", "dead").End()
				return nil
			}
			if f, isFence := rev.Data.(*FenceResp); isFence {
				if gm.rt.fencingOn() && f.Epoch > gm.epoch {
					// The container refused this round: a higher epoch has
					// taken over. Demote mid-call.
					gm.depose(p, f.Epoch, "fence response from "+target)
					sp.Attr("outcome", "fenced").End()
					return nil
				}
				continue // stale fence response; never matches a caller
			}
			if gm.answers(rev.Data) {
				sp.End()
				return rev.Data
			}
			// A late answer to an earlier round (a retried attempt's
			// duplicate): round seqs are never reused, so it can answer
			// nothing. Drop it.
		}
		timeout *= 2
	}
	gm.markSuspect(p, target)
	return nil
}

// markSuspect records that a container stopped answering control rounds.
// The policy skips suspect containers from then on.
func (gm *GlobalManager) markSuspect(p *sim.Proc, target string) {
	if gm.suspect[target] {
		return
	}
	gm.suspect[target] = true
	gm.rt.tracer.Instant(0, "ctl", "suspect").Container(target).Node(gm.node).End()
	gm.record(p, Action{T: p.Now(), Kind: "suspect", Target: target,
		Detail: "control rounds exhausted retries"})
}

// Increase grows a container onto the given nodes via the full protocol
// round; it returns the container-side cost breakdown.
func (gm *GlobalManager) Increase(p *sim.Proc, target string, nodes []*cluster.Node) *IncreaseResp {
	resp, _ := gm.call(p, target, &IncreaseReq{Nodes: nodes}).(*IncreaseResp)
	if resp != nil {
		gm.record(p, Action{T: p.Now(), Kind: "increase", Target: target, N: len(nodes)})
	}
	return resp
}

// Decrease shrinks a container by n replicas, reclaiming their nodes into
// the spare pool; it returns the protocol response.
func (gm *GlobalManager) Decrease(p *sim.Proc, target string, n int) *DecreaseResp {
	resp, _ := gm.call(p, target, &DecreaseReq{N: n}).(*DecreaseResp)
	if resp != nil {
		gm.spare = append(gm.spare, resp.Nodes...)
		gm.record(p, Action{T: p.Now(), Kind: "decrease", Target: target, N: n})
	}
	return resp
}

// Offline removes a container (and lets the caller handle cascades).
func (gm *GlobalManager) Offline(p *sim.Proc, target string) *OfflineResp {
	resp, _ := gm.call(p, target, &OfflineReq{}).(*OfflineResp)
	if resp != nil {
		gm.spare = append(gm.spare, resp.Nodes...)
		gm.rt.dropped += resp.Dropped
		gm.record(p, Action{T: p.Now(), Kind: "offline", Target: target, N: resp.Dropped})
	}
	return resp
}

// SetOutput redirects a container's output to disk with provenance.
func (gm *GlobalManager) SetOutput(p *sim.Proc, target, provenance string) {
	gm.call(p, target, &SetOutputReq{Provenance: provenance})
	gm.record(p, Action{T: p.Now(), Kind: "set_output", Target: target, Detail: provenance})
}

// Query asks a container's local manager for its needs.
func (gm *GlobalManager) Query(p *sim.Proc, target string, max int) *QueryResp {
	resp, _ := gm.call(p, target, &QueryReq{Max: max}).(*QueryResp)
	return resp
}

// Resend asks a container to immediately re-emit every retained output
// step whose descriptor was lost in flight (the at-least-once data
// plane's control leg, issued in response to a consumer's GapNotice).
func (gm *GlobalManager) Resend(p *sim.Proc, target string) *ResendResp {
	resp, _ := gm.call(p, target, &ResendReq{}).(*ResendResp)
	if resp != nil && resp.Redelivered > 0 {
		gm.record(p, Action{T: p.Now(), Kind: "resend", Target: target,
			N: resp.Redelivered, Detail: "gap-triggered redelivery"})
	}
	return resp
}

// issueResends serves the GapNotices accumulated since the last tick:
// one ResendReq round per flagged upstream container, in sorted order for
// determinism. Entries are cleared before calling so a notice arriving
// during the round is not lost.
func (gm *GlobalManager) issueResends(p *sim.Proc) {
	if len(gm.pendingResend) == 0 {
		return
	}
	names := make([]string, 0, len(gm.pendingResend))
	for name := range gm.pendingResend {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		delete(gm.pendingResend, name)
		gm.Resend(p, name)
	}
}

// Activate toggles a container's consumption.
func (gm *GlobalManager) Activate(p *sim.Proc, target string, active bool) {
	gm.call(p, target, &ActivateReq{Active: active})
	gm.record(p, Action{T: p.Now(), Kind: "activate", Target: target,
		Detail: fmt.Sprintf("active=%v", active)})
}

func (gm *GlobalManager) record(p *sim.Proc, a Action) {
	if gm.dead {
		return // a zombie primary woken by a late response records nothing
	}
	gm.actions = append(gm.actions, a)
	gm.lastAction = p.Now()
	gm.actionTaken = true
	gm.rt.rec.Mark(a.T, fmt.Sprintf("%s %s %d %s", a.Kind, a.Target, a.N, a.Detail))
}

// probeSilent pings containers the GM has not heard from in
// silencePatience policy intervals. Monitoring samples only flow while a
// container is processing steps, so a container whose manager node died
// starves *silently*: its surviving replicas have nothing to report, the
// bottleneck scan never selects it, and without this probe the GM would
// have no reason to call — and thereby suspect — it for the rest of the
// run. The probe is an ordinary Query round, so a dead manager exhausts
// the usual retry budget and lands in the existing suspect path, while a
// live-but-idle container answers a single 256 B round per patience
// window (which itself refreshes lastHeard).
func (gm *GlobalManager) probeSilent(p *sim.Proc) {
	patience := silencePatience * gm.rt.cfg.OutputPeriod
	for _, c := range gm.managed() {
		name := c.Name()
		if !c.Active() || gm.suspect[name] {
			continue
		}
		last, ok := gm.lastHeard[name]
		if !ok {
			gm.lastHeard[name] = p.Now() // first scan: start the clock
			continue
		}
		if p.Now()-last <= patience {
			continue
		}
		gm.Query(p, name, gm.rt.cfg.StagingNodes)
	}
}

// tick runs one built-in policy evaluation.
func (gm *GlobalManager) tick(p *sim.Proc) {
	gm.probeSilent(p)
	if gm.actionTaken && p.Now()-gm.lastAction < cooldownIntervals*gm.rt.cfg.OutputPeriod {
		return
	}
	// Work down the pressured containers by average latency until one
	// can actually be helped: a stage stalled by downstream backpressure
	// shows long latencies too, but its local manager reports no
	// resource need, so the policy moves past it to the true bottleneck.
	for _, bneck := range gm.findBottlenecks() {
		total := gm.rt.cfg.StagingNodes
		q := gm.Query(p, bneck.Name(), total)
		if q == nil {
			return
		}
		want := 0
		unattainable := q.Needed == 0
		if unattainable {
			want = total // take whatever exists
		} else {
			want = q.Needed - q.Size
		}
		if want <= 0 {
			continue
		}
		grant := gm.gather(p, bneck, want, unattainable)
		if len(grant) > 0 {
			gm.Increase(p, bneck.Name(), grant)
			return
		}
		// Nothing left to give. If the backlog has been heading for
		// overflow for OfflinePatience consecutive ticks, prune the
		// bottleneck from the data path (paper Fig. 9/10).
		w := gm.agg.Window(bneck.Name())
		if w != nil && w.LastQueueLen() >= offlineQueueLen(gm.rt.cfg.QueueCap) {
			gm.overflowTicks[bneck.Name()]++
		} else {
			gm.overflowTicks[bneck.Name()] = 0
		}
		if !gm.policy.DisableOffline && !bneck.Spec().Essential &&
			gm.overflowTicks[bneck.Name()] >= gm.policy.OfflinePatience {
			gm.offlineCascade(p, bneck)
		}
		return
	}
}

// findBottlenecks returns online, active containers showing backlog
// pressure, ordered by descending average latency.
func (gm *GlobalManager) findBottlenecks() []*Container {
	var candidates []string
	for _, c := range gm.managed() {
		if !c.Active() || gm.suspect[c.Name()] {
			continue
		}
		w := gm.agg.Window(c.Name())
		if w == nil || w.Len() < minSamples {
			continue
		}
		if w.LastQueueLen() >= triggerQueueLen || w.QueueTrend() > 0 {
			candidates = append(candidates, c.Name())
		}
	}
	var out []*Container
	for _, name := range gm.agg.Ranked(candidates) {
		out = append(out, gm.rt.byName[name])
	}
	return out
}

// gather collects up to want nodes: spare first, then — only when the
// need is attainable — steals from over-provisioned containers.
func (gm *GlobalManager) gather(p *sim.Proc, bneck *Container, want int, unattainable bool) []*cluster.Node {
	var grant []*cluster.Node
	take := want
	if take > len(gm.spare) {
		take = len(gm.spare)
	}
	grant = append(grant, gm.spare[:take]...)
	gm.spare = gm.spare[take:]
	want -= take
	if want > 0 && !unattainable {
		// Replenish from another shard's pool for later ticks
		// (fire-and-forget; no-op on a single shard).
		gm.requestSteal(want)
	}
	if want <= 0 || unattainable || gm.policy.DisableStealing {
		return grant
	}
	// Steal from the single most over-provisioned container (one victim
	// per action, like the paper's Fig. 7 Helper decrease; further
	// shortfalls are addressed at later ticks if the bottleneck
	// persists).
	victim, surplus := gm.mostOverProvisioned(p, bneck)
	if victim == nil || surplus <= 0 {
		return grant
	}
	n := surplus
	if n > want {
		n = want
	}
	before := len(gm.spare)
	resp := gm.Decrease(p, victim.Name(), n)
	if resp == nil {
		return grant
	}
	stolen := append([]*cluster.Node(nil), gm.spare[before:]...)
	gm.spare = gm.spare[:before]
	if gm.policy.TransactionalTrades && !gm.tradeTxn(p, victim, bneck) {
		// The trade transaction aborted: the removal must not stand
		// without the matching addition. Return the nodes to the victim.
		gm.record(p, Action{T: p.Now(), Kind: "trade-abort", Target: bneck.Name(),
			N: len(stolen), Detail: "rolled back to " + victim.Name()})
		gm.Increase(p, victim.Name(), stolen)
		return grant
	}
	grant = append(grant, stolen...)
	return grant
}

// tradeTxn runs a D2T control transaction across the trade's three
// parties (global manager + donor manager as the writer side, recipient
// manager as the reader side) and reports whether it committed. Injected
// failures make a participant go silent, forcing a consistent abort.
func (gm *GlobalManager) tradeTxn(p *sim.Proc, victim, bneck *Container) bool {
	cfg := txn.Config{Writers: 2, Readers: 1,
		VoteTimeout: gm.policy.tradeVoteTimeout(), Tracer: gm.rt.tracer}
	if gm.policy.InjectTradeFailures > 0 {
		gm.policy.InjectTradeFailures--
		cfg.SilentRanks = map[int]bool{1: true} // the donor-side manager fails
	}
	tx, err := txn.New(gm.rt.eng, gm.rt.mach, cfg)
	if err != nil {
		gm.rt.fail(err)
		return false
	}
	st := tx.Run(p)
	gm.rt.trades = append(gm.rt.trades, TradeRecord{T: p.Now(),
		Outcome: st.Outcome, Decided: st.Decided, Outcomes: tx.Outcomes()})
	return st.Outcome == txn.Committed
}

// mostOverProvisioned picks the container with the largest surplus above
// its own needs (respecting MinSize floors), excluding the bottleneck.
func (gm *GlobalManager) mostOverProvisioned(p *sim.Proc, bneck *Container) (*Container, int) {
	var best *Container
	bestSurplus := 0
	for _, c := range gm.managed() {
		if c == bneck || c.State() != StateOnline || len(c.nodes) == 0 ||
			gm.suspect[c.Name()] {
			continue
		}
		if !c.Active() {
			// Inactive containers (pre-crack CNA) hold their nodes in
			// reserve for the event they exist for; stealing them
			// would violate the isolation requirement (§III-A(ii)).
			continue
		}
		q := gm.Query(p, c.Name(), gm.rt.cfg.StagingNodes)
		if q == nil {
			continue
		}
		floor := c.spec.MinSize
		if floor < 1 {
			floor = 1
		}
		need := q.Needed
		if need < floor {
			need = floor
		}
		surplus := q.Size - need
		if surplus > bestSurplus {
			best, bestSurplus = c, surplus
		}
	}
	return best, bestSurplus
}

// offlineCascade prunes the bottleneck and its active downstream
// dependents, after redirecting the upstream container's output to disk
// with provenance listing every analysis that will now be pending.
func (gm *GlobalManager) offlineCascade(p *sim.Proc, bneck *Container) {
	affected := gm.rt.downstreamClosure(bneck)
	var pending []string
	for _, c := range affected {
		pending = append(pending, c.Name())
	}
	// Provenance also names inactive dependents (analyses that never
	// ran).
	for _, c := range gm.rt.containers {
		if !contains(pending, c.Name()) && gm.rt.isDownstreamOf(bneck, c) {
			pending = append(pending, c.Name())
		}
	}
	// Cross-shard edges: the cascade only touches containers this manager
	// has a bridge to. A neighbor in another shard keeps running; its own
	// manager handles it (on a single shard every container is local, so the
	// guards never fire).
	if up := gm.rt.upstreamOf(bneck); up != nil {
		if _, local := gm.toContainer[up.Name()]; local {
			gm.SetOutput(p, up.Name(), strings.Join(pending, ","))
		}
	}
	for _, c := range affected {
		if _, local := gm.toContainer[c.Name()]; !local {
			continue
		}
		gm.Offline(p, c.Name())
	}
}

// branch executes the pipeline's dynamic branch on crack detection: CSym
// hands over to CNA ("Bonds then kills itself and notifies the next
// stage, CNA, to start reading data").
func (gm *GlobalManager) branch(p *sim.Proc) {
	gm.branchDone = true
	for _, c := range gm.managed() {
		if c.State() != StateOnline {
			continue
		}
		if c.spec.ActivateOnCrack && !c.active {
			gm.Activate(p, c.Name(), true)
		}
		if c.spec.DeactivateOnCrack && c.active {
			gm.Activate(p, c.Name(), false)
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
