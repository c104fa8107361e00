package core

import (
	"repro/internal/cluster"
	"repro/internal/evpath"
	"repro/internal/sim"
)

// The paper singles the global manager out as "a potential single point
// of failure" and points at ZooKeeper-style methods for resilience. This
// file implements the mechanism: a standby global manager on another
// staging node watches the primary's heartbeats (run in standby mode, at
// every shard count); on silence it adopts the spare pool (recomputed
// from authoritative container ownership), rehomes every container's
// upward overlay onto itself, and resumes the policy.

// msgGMHeartbeat is the primary's liveness beacon to the standby.
const msgGMHeartbeat = "ctl.gm_heartbeat"

// msgRehome redirects a container's upward traffic to a new manager.
const msgRehome = "ctl.rehome"

// GMHeartbeat is the beacon payload. Epoch lets the standby fence its
// takeover above the primary's epoch, and lets an active manager detect
// a stale peer still beating after a healed partition; Inbox gives the
// active manager a path to send that peer a DemoteNotice.
type GMHeartbeat struct {
	At    sim.Time
	Epoch int64
	Inbox *evpath.Stone
}

// RehomeReq points the container's monitoring/response bridge at a new
// global manager inbox.
type RehomeReq struct {
	RoundHdr
	Inbox *evpath.Stone
}

func (*RehomeReq) kind() string { return msgRehome }

// RehomeResp acknowledges the switch (sent via the NEW bridge — its
// arrival proves the new path works).
type RehomeResp struct{ RoundHdr }

// Rehome redirects a container to this manager via a control round.
func (gm *GlobalManager) Rehome(p *sim.Proc, target string) bool {
	resp, _ := gm.call(p, target, &RehomeReq{Inbox: gm.inbox()}).(*RehomeResp)
	return resp != nil
}

// takeOver promotes the standby: rehome every surviving container, then
// adopt the spare pool from authoritative ownership. The order matters:
// each Rehome is a control round that serializes behind any resize the
// dead primary left in flight, so by the time the last container has
// rehomed, nodes it was granted mid-resize appear in its ownership list
// and are not double-counted as spare (which would leak them to two
// owners).
func (gm *GlobalManager) takeOver(p *sim.Proc) {
	rt := gm.rt
	rt.shardPrimary[gm.shard] = gm
	gm.standbyMode = false
	if rt.fencingOn() {
		// Fence above everything this standby has seen: its own epoch and
		// the highest the primary ever advertised. Containers will reject
		// any round the old primary issues from now on.
		e := gm.peerEpoch
		if gm.epoch > e {
			e = gm.epoch
		}
		gm.epoch = e + 1
	} else {
		// Legacy pre-fencing behavior (chaos regressions reproduce the
		// split-brain under this): adopt the primary's epoch, so a healed
		// primary and this standby issue rounds in the SAME epoch.
		gm.epoch = gm.peerEpoch
	}
	var failed []string
	for _, c := range gm.managed() {
		if c.State() != StateOnline {
			continue
		}
		if !gm.Rehome(p, c.Name()) {
			failed = append(failed, c.Name())
		}
	}
	// A rehome can exhaust its retries on transient control-message loss
	// even though the container is alive — and may even have switched
	// bridges already (only the response was lost). Give each failure one
	// fresh round before the suspect verdict sticks: rehome is idempotent
	// (a duplicate switch to the same inbox is harmless, and a same-seq
	// retry is answered from the dedupe cache), so retrying is always safe.
	for _, name := range failed {
		delete(gm.suspect, name)
		if !gm.Rehome(p, name) {
			gm.markSuspect(p, name)
		}
	}
	gm.spare = rt.unownedShardNodes(gm.shard)
	gm.record(p, Action{T: p.Now(), Kind: "failover", Target: "global-manager",
		N: len(gm.spare), Detail: "standby took over"})
}

// unownedShardNodes recomputes one shard's spare pool — the authoritative
// inventory a recovering manager rebuilds from: the staging nodes the
// directory assigns to that shard, in placement order, minus nodes owned
// by a container, minus the dead. Cross-shard steals rehome nodes in the
// directory at release time, so a promoted standby never adopts a node
// another shard now holds.
func (rt *Runtime) unownedShardNodes(shard int) []*cluster.Node {
	owned := map[int]bool{}
	for _, c := range rt.containers {
		for _, n := range c.nodes {
			owned[n.ID] = true
		}
	}
	var out []*cluster.Node
	for _, n := range rt.stagingNodes {
		if rt.dir.NodeShard(n.ID) == shard && !owned[n.ID] && n.Up() {
			out = append(out, n)
		}
	}
	return out
}
