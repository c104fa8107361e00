package core

import (
	"fmt"

	"repro/internal/evpath"
	"repro/internal/shardmgr"
	"repro/internal/sim"
)

// MetaManager is the thin top of the sharded control plane. It owns no
// containers and issues no synchronous rounds; everything it does is
// slow-path: track each shard's epoch, spare pool and inbox from
// ShardBeats, broker cross-shard node steals, and broadcast crack
// relays. Failover is not its job: each shard's standby
// watches its own primary. All of its sends are pump-side bridge
// submissions, so the meta-manager can never wedge the control plane
// it supervises.
type MetaManager struct {
	rt     *Runtime
	node   int
	ev     *evpath.Manager
	ctl    *evpath.Mailbox
	shards int
	dead   bool

	// Per-shard view, all keyed by shard ID and iterated by integer
	// range (0..shards-1), never by map order.
	shardEpoch   map[int]int64
	shardSpare   map[int]int
	shardInbox   map[int]*evpath.Stone // acting manager, from the last beat
	standbyInbox map[int]*evpath.Stone // wired at build time

	crackSeen bool

	bridges     map[*evpath.Stone]*evpath.Stone
	bridgeOrder []*evpath.Stone

	actions []Action
}

// newMetaManager builds the meta-manager on the given staging node.
func newMetaManager(rt *Runtime, node, shards int) *MetaManager {
	mm := &MetaManager{
		rt:           rt,
		node:         node,
		shards:       shards,
		shardEpoch:   make(map[int]int64, shards),
		shardSpare:   make(map[int]int, shards),
		shardInbox:   make(map[int]*evpath.Stone, shards),
		standbyInbox: make(map[int]*evpath.Stone, shards),
		bridges:      make(map[*evpath.Stone]*evpath.Stone),
	}
	mm.ev = evpath.NewManager(rt.eng, rt.mach, node)
	mm.ev.SetTracer(rt.tracer)
	mm.ctl = evpath.NewMailbox(mm.ev)
	return mm
}

// inbox is the stone shard managers bridge their upward traffic to.
func (mm *MetaManager) inbox() *evpath.Stone { return mm.ctl.Stone }

// Dead reports whether the meta-manager's node crashed.
func (mm *MetaManager) Dead() bool { return mm.dead }

// Actions returns the meta-manager's slow-path decisions (brokered
// steals).
func (mm *MetaManager) Actions() []Action { return append([]Action(nil), mm.actions...) }

// run is the meta-manager process: pump beats and relays until the
// mailbox closes or the node dies.
func (mm *MetaManager) run(p *sim.Proc) {
	for {
		ev, ok := mm.ctl.Recv(p)
		if !ok || mm.dead {
			return
		}
		p.BeginNoPark()
		mm.dispatch(ev)
		p.EndNoPark()
	}
}

// dispatch routes one shard round message. Like the shard managers'
// pump, handling an event must never park the meta-manager process; run
// calls it in a no-park section, where the kernel panics on any wait.
func (mm *MetaManager) dispatch(ev *evpath.Event) {
	switch data := ev.Data.(type) {
	case *ShardBeat:
		mm.shardSpare[data.Shard] = data.Spare
		if data.Epoch > mm.shardEpoch[data.Shard] {
			mm.shardEpoch[data.Shard] = data.Epoch
		}
		if data.Inbox != nil {
			mm.shardInbox[data.Shard] = data.Inbox
		}
	case *StealReq:
		mm.brokerSteal(data)
	case *CrackRelay:
		mm.broadcastCrack(data)
	}
}

// brokerSteal picks a donor shard for a dry requester and forwards the
// steal as a StealNotice. A stale request (below the highest epoch heard
// for that shard) is dropped; with no donor, an empty StealGrant goes
// straight back so the requester's pending-steal latch clears. Runs from
// dispatch; must not park.
func (mm *MetaManager) brokerSteal(req *StealReq) {
	if req.Epoch < mm.shardEpoch[req.Shard] || req.Inbox == nil {
		return // a deposed shard manager's request; its successor re-asks
	}
	donor := shardmgr.PickDonor(mm.shardSpare, req.Shard)
	if donor < 0 || mm.shardInbox[donor] == nil {
		mm.bridgeTo(req.Inbox).Submit(&evpath.Event{Type: msgStealGrant,
			Size: ctlMsgBytes,
			Data: &StealGrant{Seq: req.Seq, Epoch: req.Epoch, Shard: -1}})
		mm.rt.tracer.Instant(0, "ctl", "steal-dry").Node(mm.node).
			AttrInt("shard", int64(req.Shard)).AttrInt("seq", req.Seq).End()
		return
	}
	// Debit the advertised pool so back-to-back requests inside one beat
	// window spread across donors; the donor's next beat re-syncs it.
	mm.shardSpare[donor] -= req.N
	if mm.shardSpare[donor] < 0 {
		mm.shardSpare[donor] = 0
	}
	mm.record(Action{T: mm.rt.eng.Now(), Kind: "steal-broker",
		Target: fmt.Sprintf("shard-%d", req.Shard), N: req.N,
		Detail: fmt.Sprintf("donor shard %d", donor)})
	mm.rt.tracer.Instant(0, "ctl", "steal-broker").Node(mm.node).
		AttrInt("shard", int64(req.Shard)).AttrInt("donor", int64(donor)).
		AttrInt("seq", req.Seq).End()
	mm.bridgeTo(mm.shardInbox[donor]).Submit(&evpath.Event{
		Type: msgStealNotice, Size: ctlMsgBytes,
		Data: &StealNotice{Seq: req.Seq, Epoch: req.Epoch, Shard: req.Shard,
			N: req.N, Inbox: req.Inbox}})
}

// broadcastCrack fans the first crack relay out to every shard (acting
// managers and standbys) so each runs its own branch activation. Later
// relays are duplicates and are dropped. Runs from dispatch; must not
// park.
func (mm *MetaManager) broadcastCrack(data *CrackRelay) {
	if mm.crackSeen {
		return
	}
	mm.crackSeen = true
	for s := 0; s < mm.shards; s++ {
		fwd := &CrackRelay{Seq: data.Seq, Epoch: data.Epoch, Shard: s,
			From: data.From, Step: data.Step}
		if inbox := mm.shardInbox[s]; inbox != nil {
			mm.bridgeTo(inbox).Submit(&evpath.Event{Type: msgCrackRelay,
				Size: ctlMsgBytes, Data: fwd})
		}
		if inbox := mm.standbyInbox[s]; inbox != nil {
			mm.bridgeTo(inbox).Submit(&evpath.Event{Type: msgCrackRelay,
				Size: ctlMsgBytes, Data: fwd})
		}
	}
}

// bridgeTo returns (creating and caching on first use) a bridge to a
// peer inbox, with an insertion-ordered list for deterministic close.
func (mm *MetaManager) bridgeTo(inbox *evpath.Stone) *evpath.Stone {
	if b, ok := mm.bridges[inbox]; ok {
		return b
	}
	b := mm.ev.NewBridge(inbox)
	mm.bridges[inbox] = b
	mm.bridgeOrder = append(mm.bridgeOrder, b)
	return b
}

func (mm *MetaManager) record(a Action) {
	if mm.dead {
		return
	}
	mm.actions = append(mm.actions, a)
	mm.rt.rec.Mark(a.T, fmt.Sprintf("%s %s %d %s", a.Kind, a.Target, a.N, a.Detail))
}

// close closes the meta-manager's bridges and mailbox at shutdown.
func (mm *MetaManager) close() {
	for _, b := range mm.bridgeOrder {
		b.CloseBridge()
	}
	mm.ctl.Close()
}
