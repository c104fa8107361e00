package core

import (
	"fmt"

	"repro/internal/evpath"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
)

// Epoch fencing closes the split-brain the standby takeover opens: the
// standby in failover.go promotes itself after three silent heartbeats,
// but silence is indistinguishable from a partition, so a healed
// partition can leave TWO live global managers issuing rounds. The fix
// is monotonic epochs, ZooKeeper-style: the primary starts at epoch 1,
// a takeover bumps the epoch past the highest the standby has seen, and
// the epoch rides every heartbeat and every round: it sits in the
// RoundHdr each control Req/Resp embeds, stamped by the manager's
// callRound and checked and restamped by the container's managerLoop.
// Containers remember the highest epoch that has contacted them and
// reject lower-epoch rounds with a FenceResp; a manager that is fenced — or
// that hears a higher-epoch peer's heartbeat answered by a DemoteNotice —
// demotes itself to a passive standby and never issues another round.
// Each fencing decision fires a "fence:<target>" flight-recorder trigger
// so the lead-up to a split brain is preserved in the trace ring.
//
// PolicyConfig.DisableFencing gates the whole mechanism off: the legacy
// pre-fencing behavior chaos regressions reproduce the split-brain under.

// msgDemote tells a stale manager a higher epoch has taken over.
const msgDemote = "ctl.demote"

// FenceResp is a container's refusal of a lower-epoch round: the request
// was NOT served. Epoch carries the fencing (higher) epoch the sender
// must yield to. It travels as an ordinary protocol response so it lands
// in the stale manager's response mailbox mid-call.
type FenceResp struct{ RoundHdr }

// DemoteNotice is sent by an active manager to a lower-epoch peer whose
// heartbeats prove it still thinks it is primary. Epoch is the sender's.
type DemoteNotice struct {
	Epoch int64
}

// fencingOn reports whether epoch fencing is active for this run.
func (rt *Runtime) fencingOn() bool { return !rt.cfg.Policy.DisableFencing }

// Epoch returns the manager's current fencing epoch (0 for a standby
// that has not taken over).
func (gm *GlobalManager) Epoch() int64 { return gm.epoch }

// Deposed reports whether this manager has demoted itself after being
// fenced by a higher epoch.
func (gm *GlobalManager) Deposed() bool { return gm.deposed }

// depose demotes this manager: it stops issuing control rounds and
// heartbeats, drops into a passive pump, and never takes over again (it
// cannot observe the new primary's liveness — the heartbeat beacons do
// not target it — so re-promotion would reopen the split brain).
func (gm *GlobalManager) depose(p *sim.Proc, higher int64, how string) {
	if gm.deposed {
		return
	}
	gm.deposed = true
	gm.rt.tracer.Trigger("fence:global-manager")
	gm.rt.tracer.Instant(0, "ctl", "deposed").Node(gm.node).
		AttrInt("epoch", gm.epoch).AttrInt("by", higher).End()
	gm.record(p, Action{T: p.Now(), Kind: "demote", Target: "global-manager",
		Detail: fmt.Sprintf("epoch %d fenced by %d (%s)", gm.epoch, higher, how)})
}

// runDeposed is the demoted manager's terminal state: keep pumping the
// control mailbox without beating, ticking, or granting anything.
func (gm *GlobalManager) runDeposed(p *sim.Proc) {
	for {
		ev, ok := gm.ctl.Recv(p)
		if !ok {
			return
		}
		if gm.dead {
			return
		}
		gm.dispatch(p, ev)
	}
}

// RoundRecord logs one control-round send attempt for the chaos
// single-writer oracle: at most one manager node may issue rounds within
// any given epoch. It is a log entry, not a message: it never travels the
// overlay and embeds no RoundHdr.
type RoundRecord struct {
	T      sim.Time
	Epoch  int64
	Seq    int64
	Node   int // issuing manager's node
	Target string
	Kind   string
	Retry  int
	// Shard is the issuing manager's shard (-1 on single-shard runs);
	// epochs are per-shard, so the oracle keys on (Shard, Epoch).
	Shard int
}

// noteRound appends to the runtime-wide round log (shared across manager
// instances, like the sequence counter, so a failover's rounds land in
// one ordered record).
func (rt *Runtime) noteRound(r RoundRecord) { rt.rounds = append(rt.rounds, r) }

// CrashVictim records one replica (or its co-resident local manager)
// lost to a node crash, for the heal-completeness oracle.
type CrashVictim struct {
	T         sim.Time
	Node      int
	Container string
	// Manager is true when the crashed node also hosted the container's
	// local manager — such a container cannot run the restart protocol
	// and is expected to go silent instead of heal.
	Manager bool
}

// TradeRecord captures one D2T trade transaction's outcome, including
// every responsive participant's decision, for the same-decision oracle.
type TradeRecord struct {
	T        sim.Time
	Outcome  txn.Outcome
	Decided  int
	Outcomes map[int]txn.Outcome
}

// ManagerNode returns the machine node hosting the container's local
// manager (the chaos heal-completeness oracle excuses containers whose
// manager node died).
func (c *Container) ManagerNode() int { return c.mgrEV.Node() }

// fence rejects a lower-epoch round: fire the flight-recorder trigger,
// then answer with a FenceResp carrying the container's fenced epoch so
// the stale manager can demote itself. The refusal travels the bridge
// the round arrived on — after a rehome that is the *previous* upward
// bridge, which still points at the stale manager's inbox.
func (c *Container) fence(seq, stale int64, parent trace.SpanID) {
	c.rt.tracer.Trigger("fence:" + c.spec.Name)
	c.rt.tracer.Instant(parent, "ctl", "fence").
		Container(c.spec.Name).Node(c.mgrEV.Node()).
		AttrInt("seq", seq).AttrInt("stale", stale).
		AttrInt("fenced", c.fencedEpoch).End()
	resp := &FenceResp{RoundHdr{Seq: seq, Epoch: c.fencedEpoch}}
	out := c.toGM
	if c.staleGM != nil {
		out = c.staleGM
	}
	out.Submit(&evpath.Event{Type: msgResp, Size: ctlMsgBytes, Data: resp})
}
