package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/evpath"
	"repro/internal/sim"
)

// The sharded control plane (DESIGN.md §14) splits the single global
// manager into N shard managers under one meta-manager. Containers are
// assigned to shards at build time by a seeded consistent-hash ring
// (internal/shardmgr); each shard manager owns the full round machinery —
// ticks, SLA policy, suspect/heal, fencing, and its standby's failover —
// for its scope, with its own per-shard epoch. The meta-manager above
// them does only slow-path work: tracking each shard's epoch and spare
// pool from ShardBeats, brokering cross-shard node steals when a shard's
// spare pool runs dry, and relaying crack detection.
//
// Every message below carries plain Seq, Epoch and Shard fields and embeds
// no RoundHdr: shard traffic is pump-to-pump messaging between managers
// (MetaManager.dispatch and shardDispatch), never a container round, so
// gm.call and managerLoop do not apply to it.
//
// Steal fencing: a StealReq carries the requesting shard manager's epoch;
// the meta-manager drops requests below the highest epoch it has heard
// beat for that shard, and the epoch is echoed through StealNotice and
// StealGrant so a grant landing at a manager whose epoch has moved on
// (a standby promoted mid-steal) is dropped. Dropped-grant nodes end up
// owned by nobody — leaked capacity, never dual ownership — and the next
// shard beat re-advertises the donor's smaller pool.

// Shard round message types on the management overlay.
const (
	msgStealReq    = "ctl.steal_req"    // shard -> meta: my pool is dry
	msgStealNotice = "ctl.steal_notice" // meta -> donor shard: release nodes
	msgStealGrant  = "ctl.steal_grant"  // donor -> beneficiary: released nodes
	msgShardBeat   = "ctl.shard_beat"   // shard -> meta: epoch + pool size
	msgCrackRelay  = "ctl.crack_relay"  // shard -> meta -> all shards
)

// StealReq asks the meta-manager for nodes from another shard's pool.
// Shard is the requesting (beneficiary) shard; Inbox is where the
// eventual StealGrant must land.
type StealReq struct {
	Seq   int64
	Epoch int64
	Shard int
	N     int
	Inbox *evpath.Stone
}

// StealNotice tells a donor shard manager to release up to N spare nodes
// to the beneficiary shard. Shard and Epoch identify the *beneficiary*
// (echoed from the StealReq) so the grant can be fenced at arrival.
type StealNotice struct {
	Seq   int64
	Epoch int64
	Shard int
	N     int
	Inbox *evpath.Stone
}

// StealGrant carries the released nodes to the beneficiary. Shard is the
// donor; Epoch echoes the beneficiary epoch from the StealReq — a
// receiver whose epoch has since changed drops the grant. An empty grant
// (no donor had nodes) clears the beneficiary's pending-steal latch.
type StealGrant struct {
	Seq   int64
	Epoch int64
	Shard int
	Nodes []*cluster.Node
}

// ShardBeat is a shard manager's periodic report to the meta-manager:
// current epoch, advertised spare-pool size, and the inbox cross-shard
// traffic for this shard should be sent to. It is accounting, not
// liveness: a shard's standby watches its primary directly.
type ShardBeat struct {
	Seq   int64
	Epoch int64
	Shard int
	Spare int
	Inbox *evpath.Stone
}

// CrackRelay propagates crack detection across shards: the observing
// shard relays to the meta-manager, which broadcasts to every shard so
// each can run its own dynamic-branch activation.
type CrackRelay struct {
	Seq   int64
	Epoch int64
	Shard int
	From  string
	Step  int64
}

// managed returns the containers this manager is responsible for: its
// shard scope when sharded, the whole pipeline on a single shard.
func (gm *GlobalManager) managed() []*Container {
	if gm.scope != nil {
		return gm.scope
	}
	return gm.rt.containers
}

// ShardID returns the manager's shard, or -1 on a single-shard run, whose
// rounds, spans and oracle verdicts carry no shard label.
func (gm *GlobalManager) ShardID() int {
	if !gm.rt.Sharded() {
		return -1
	}
	return gm.shard
}

// Node returns the staging node hosting this manager.
func (gm *GlobalManager) Node() int { return gm.node }

// Dead reports whether the manager's node crashed (or KillGMAt fired).
func (gm *GlobalManager) Dead() bool { return gm.dead }

// InStandby reports whether the manager is still a watching standby.
func (gm *GlobalManager) InStandby() bool { return gm.standbyMode }

// shardDispatch handles the shard round messages that land in a shard
// manager's control mailbox. It is called first from dispatch and
// reports whether it consumed the event; container notices fall through.
// Like dispatch it runs on the pump and must never park.
func (gm *GlobalManager) shardDispatch(p *sim.Proc, ev *evpath.Event) bool {
	switch data := ev.Data.(type) {
	case *StealNotice:
		gm.serveSteal(p, data)
	case *StealGrant:
		gm.acceptSteal(p, data)
	case *CrackRelay:
		// Crack broadcast from the meta-manager. Mark it relayed too so
		// the observing shard's own relay does not echo forever.
		gm.crackSeen = true
		gm.crackRelayed = true
	default:
		return false
	}
	return true
}

// requestSteal asks the meta-manager for n nodes from another shard's
// pool. It is fire-and-forget from the pump or the policy tick: the
// grant lands in the control mailbox later and replenishes the spare
// pool for the *next* heal or resize, so the caller never waits. At most
// one steal is in flight per manager; the latch clears when a grant
// (even an empty one) arrives.
func (gm *GlobalManager) requestSteal(n int) {
	if gm.toMeta == nil || gm.stealPending || gm.deposed || n <= 0 {
		return
	}
	gm.stealPending = true
	gm.shardSeq++
	gm.toMeta.Submit(&evpath.Event{Type: msgStealReq, Size: ctlMsgBytes,
		Data: &StealReq{Seq: gm.shardSeq, Epoch: gm.epoch, Shard: gm.shard,
			N: n, Inbox: gm.root}})
}

// serveSteal is the donor side of a cross-shard steal: release up to N
// spare nodes to the beneficiary shard. The directory is updated at
// release time — a node in flight belongs to nobody, so no interleaving
// of steal and heal can put one node in two shards' pools. Runs from the
// pump; must not park.
func (gm *GlobalManager) serveSteal(p *sim.Proc, req *StealNotice) {
	if gm.deposed || gm.dead || req.Inbox == nil {
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
		for _, n := range grant {
			gm.rt.dir.SetNodeShard(n.ID, req.Shard)
		}
		gm.rt.dir.RecordSteal(gm.shard, req.Shard, take)
		gm.record(p, Action{T: p.Now(), Kind: "steal-out",
			Target: fmt.Sprintf("shard-%d", req.Shard), N: take,
			Detail: fmt.Sprintf("released %d node(s) from shard %d", take, gm.shard)})
	}
	gm.bridgeTo(req.Inbox).Submit(&evpath.Event{Type: msgStealGrant,
		Size: ctlMsgBytes,
		Data: &StealGrant{Seq: req.Seq, Epoch: req.Epoch, Shard: gm.shard,
			Nodes: grant}})
}

// acceptSteal is the beneficiary side: fold the granted nodes into the
// spare pool. A grant fenced by an epoch change (this manager was
// promoted mid-steal, or the grant was meant for a now-deposed primary)
// is dropped — the nodes stay unowned rather than risk two pools holding
// them.
func (gm *GlobalManager) acceptSteal(p *sim.Proc, g *StealGrant) {
	gm.stealPending = false
	if g.Epoch != gm.epoch || gm.deposed {
		return
	}
	if len(g.Nodes) == 0 {
		return
	}
	gm.spare = append(gm.spare, g.Nodes...)
	gm.record(p, Action{T: p.Now(), Kind: "steal-in",
		Target: fmt.Sprintf("shard-%d", gm.shard), N: len(g.Nodes),
		Detail: fmt.Sprintf("adopted %d node(s) from shard %d", len(g.Nodes), g.Shard)})
}

// relayCrack forwards an observed crack to the meta-manager exactly once
// so every other shard learns to run its branch. Single-shard runs (no meta)
// are a no-op. Runs from the pump; must not park.
func (gm *GlobalManager) relayCrack(n *CrackNotice) {
	if gm.toMeta == nil || gm.crackRelayed {
		return
	}
	gm.crackRelayed = true
	gm.shardSeq++
	gm.toMeta.Submit(&evpath.Event{Type: msgCrackRelay, Size: ctlMsgBytes,
		Data: &CrackRelay{Seq: gm.shardSeq, Epoch: gm.epoch, Shard: gm.shard,
			From: n.From, Step: n.Step}})
}

// bridgeTo returns (creating and caching on first use) a bridge to a
// peer inbox. The cache keeps an insertion-ordered list so closeBridges
// closes the bridges in a deterministic order.
func (gm *GlobalManager) bridgeTo(inbox *evpath.Stone) *evpath.Stone {
	if b, ok := gm.peerBridges[inbox]; ok {
		return b
	}
	if gm.peerBridges == nil {
		gm.peerBridges = make(map[*evpath.Stone]*evpath.Stone)
	}
	b := gm.ev.NewBridge(inbox)
	gm.peerBridges[inbox] = b
	gm.peerOrder = append(gm.peerOrder, b)
	return b
}

// beatMeta sends the periodic ShardBeat.
func (gm *GlobalManager) beatMeta() {
	gm.shardSeq++
	gm.toMeta.Submit(&evpath.Event{Type: msgShardBeat, Size: ctlMsgBytes,
		Data: &ShardBeat{Seq: gm.shardSeq, Epoch: gm.epoch,
			Shard: gm.shard, Spare: len(gm.spare), Inbox: gm.root}})
}
