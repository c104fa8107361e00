package chaos

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/datatap"
	"repro/internal/sim"
	"repro/internal/txn"
)

// DefaultOracles is the standard invariant suite: every run, faulted or
// not, must satisfy all of these.
func DefaultOracles() []Oracle {
	return []Oracle{
		{Name: "conservation", Check: checkConservation},
		{Name: "single-writer", Check: checkSingleWriter},
		{Name: "same-decision", Check: checkSameDecision},
		{Name: "convergence", Check: checkConvergence},
		{Name: "heal-completeness", Check: checkHeal},
		{Name: "trace-dag", Check: checkTraceDAG},
		{Name: "delivery", Check: checkDelivery},
		{Name: "dual-ownership", Check: checkDualOwnership},
		{Name: "sub-conservation", Check: checkSubConservation},
		{Name: "sub-sla", Check: checkSubSLA},
	}
}

// checkConservation audits each channel's byte ledger: every byte that
// entered the channel (written or re-emitted by the repair loop) must be
// pulled, invalidated, still queued, or resident in the spill store —
// never silently lost, no matter which nodes crashed mid-transfer. The
// redelivery and spill terms are zero in best-effort mode, so the
// legacy invariant is the same equation.
func checkConservation(info *RunInfo) []string {
	var out []string
	for _, ch := range info.RT.Channels() {
		s := ch.Stats()
		queued := ch.QueuedBytes()
		spilled := ch.SpillResidentBytes()
		if s.BytesWritten+s.BytesRedelivered != s.BytesPulled+s.BytesInvalidated+queued+spilled {
			out = append(out, fmt.Sprintf(
				"channel %s: written %d + redelivered %d != pulled %d + invalidated %d + queued %d + spilled %d",
				ch.Name(), s.BytesWritten, s.BytesRedelivered,
				s.BytesPulled, s.BytesInvalidated, queued, spilled))
		}
	}
	return out
}

// checkDelivery audits the no-step-lost guarantee on runs that opted
// into an explicit delivery contract (a scenario "delivery" section):
//
//   - No container may report an unexplained delivery loss (a refused
//     output write on a live channel) in either mode — best-effort runs
//     that lose steps do so silently at the transport, not the stage.
//   - In at-least-once mode every written step must be acked, resident
//     in the spill store, retained for redelivery, still queued, or
//     covered by an explicit crash tombstone — the per-channel step
//     ledger must balance — and no write may be silently rejected.
//   - In explicit best-effort mode the oracle reports the losses the
//     transport DOES allow (rejected writes, live-writer invalidations),
//     which is how checked-in reproducers demonstrate a loss that
//     flipping the scenario to at-least-once clears.
//
// Runs without a delivery section (the legacy chaos corpus) are skipped:
// they never promised anything about step delivery.
func checkDelivery(info *RunInfo) []string {
	if info.File.Delivery == nil {
		return nil
	}
	var out []string
	for _, l := range info.Res.DeliveryLost {
		out = append(out, fmt.Sprintf(
			"container %s lost step %d (%s)", l.Container, l.Step, l.Reason))
	}
	alo := info.File.Delivery.Mode == "at-least-once"
	for _, d := range info.Res.Delivery {
		if d.Mode == datatap.DeliveryAtLeastOnce {
			if n := d.Unaccounted(); n != 0 {
				out = append(out, fmt.Sprintf(
					"channel %s: %d step(s) unaccounted (written %d, acked %d, crash-lost %d, spilled %d, retained %d)",
					d.Channel, n, d.StepsWritten, d.StepsAcked,
					d.StepsCrashLost, d.SpillResident, d.Retained))
			}
			if d.WriteRejected > 0 {
				out = append(out, fmt.Sprintf(
					"channel %s: %d write(s) silently rejected in at-least-once mode",
					d.Channel, d.WriteRejected))
			}
		} else if !alo && (d.WriteRejected > 0 || d.InvalidatedLive > 0) {
			out = append(out, fmt.Sprintf(
				"channel %s: best-effort transport lost data (%d rejected write(s), %d live invalidation(s))",
				d.Channel, d.WriteRejected, d.InvalidatedLive))
		}
	}
	return out
}

// checkSubConservation audits each streaming subscriber's ledger on runs
// with a subscriber fleet: every sequence published past a subscriber's
// join point must be delivered, knowingly dropped, staged in its buffer,
// pending in the hub's shared tail, or resident in the spill store —
// exact per-subscriber accounting, crashes and reconnects included.
// Runs without a subscribers section never attached a hub and are skipped.
func checkSubConservation(info *RunInfo) []string {
	if info.File.Subscribers == nil {
		return nil
	}
	var out []string
	for _, s := range info.Res.Subscribers {
		if n := s.Unaccounted(); n != 0 {
			out = append(out, fmt.Sprintf(
				"subscriber %s: %d sequence(s) unaccounted (published %d, delivered %d, dropped %d, buffered %d, tail %d, spill %d)",
				s.ID, n, s.Published, s.Delivered, s.Dropped, s.Buffered,
				s.TailPending, s.SpillResident))
		}
	}
	return out
}

// checkSubSLA audits the fan-out's never-block-the-simulation guarantee.
// Publish takes no process handle, so its stall time must be structurally
// zero on every run; and on schedules whose only faults are subscriber
// crashes, the simulation writer must never have parked at all — no
// subscriber, however slow, crashed, or storm-reconnecting, may slow the
// producer. Node, link, and drop faults can legitimately park a writer
// (dead consumers, full queues, push retries), so the writer-stall term
// is audited only on subscriber-only schedules.
func checkSubSLA(info *RunInfo) []string {
	if info.File.Subscribers == nil {
		return nil
	}
	var out []string
	if st := info.Res.SubHub.PublishStall; st != 0 {
		out = append(out, fmt.Sprintf("subscriber fan-out parked writers for %v", st))
	}
	f := info.File.Faults
	subOnly := f == nil || (len(f.Crashes) == 0 && len(f.Links) == 0 &&
		len(f.Partitions) == 0 && len(f.Drops) == 0 && len(f.DataDrops) == 0 &&
		len(f.Stalls) == 0)
	if subOnly && info.Res.WriterStalled != 0 {
		out = append(out, fmt.Sprintf(
			"writer stalled %v on a subscriber-only schedule", info.Res.WriterStalled))
	}
	return out
}

// checkSingleWriter audits the epoch-fencing guarantee: within any one
// (shard, epoch) pair, at most one manager node may issue control rounds.
// Epochs are per-shard — shard 0's epoch 2 and shard 1's epoch 2 are
// unrelated fences — so the key carries the issuing shard (-1 on legacy
// single-manager runs, where the rule degenerates to per-epoch). The
// legacy (DisableFencing) failover violates this after a healed
// partition — primary and promoted standby both round in epoch 1.
func checkSingleWriter(info *RunInfo) []string {
	type fence struct {
		shard int
		epoch int64
	}
	issuers := map[fence]map[int]bool{}
	for _, r := range info.Res.Rounds {
		k := fence{r.Shard, r.Epoch}
		m := issuers[k]
		if m == nil {
			m = map[int]bool{}
			issuers[k] = m
		}
		m[r.Node] = true
	}
	var bad []fence
	for k, nodes := range issuers {
		if len(nodes) > 1 {
			bad = append(bad, k)
		}
	}
	sort.Slice(bad, func(i, j int) bool {
		if bad[i].shard != bad[j].shard {
			return bad[i].shard < bad[j].shard
		}
		return bad[i].epoch < bad[j].epoch
	})
	var out []string
	for _, k := range bad {
		var nodes []int
		for n := range issuers[k] {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		where := fmt.Sprintf("epoch %d", k.epoch)
		if k.shard >= 0 {
			where = fmt.Sprintf("shard %d %s", k.shard, where)
		}
		out = append(out, fmt.Sprintf(
			"%s has %d round issuers (nodes %v): split brain", where, len(nodes), nodes))
	}
	return out
}

// checkSameDecision audits D2T atomicity: every participant that decided
// a trade transaction must have decided the same way, and a committed
// transaction admits no aborted participant.
func checkSameDecision(info *RunInfo) []string {
	var out []string
	for i, tr := range info.Res.Trades {
		seen := map[txn.Outcome]bool{}
		for _, o := range tr.Outcomes {
			seen[o] = true
		}
		if len(seen) > 1 {
			out = append(out, fmt.Sprintf(
				"trade %d at %v: participants disagree (%s)", i, tr.T, outcomeSet(tr.Outcomes)))
			continue
		}
		if tr.Outcome == txn.Committed {
			var ranks []int
			for r := range tr.Outcomes {
				ranks = append(ranks, r)
			}
			sort.Ints(ranks)
			for _, r := range ranks {
				if o := tr.Outcomes[r]; o != txn.Committed {
					out = append(out, fmt.Sprintf(
						"trade %d at %v: committed globally but rank %d decided %v",
						i, tr.T, r, o))
					break
				}
			}
		}
	}
	return out
}

func outcomeSet(m map[int]txn.Outcome) string {
	var ranks []int
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	s := ""
	for _, r := range ranks {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("rank %d: %v", r, m[r])
	}
	return s
}

// checkConvergence audits quiescence: the engine must drain fully (no
// event loop may spin forever), and a fault-free run must finish its
// producer and push steps all the way through the pipeline.
func checkConvergence(info *RunInfo) []string {
	var out []string
	if n := info.RT.Engine().Pending(); n != 0 {
		out = append(out, fmt.Sprintf("engine still has %d pending events after shutdown", n))
	}
	f := info.File.Faults
	faultFree := f == nil || (len(f.Crashes) == 0 && len(f.Links) == 0 &&
		len(f.Partitions) == 0 && len(f.Drops) == 0 && len(f.DataDrops) == 0 &&
		len(f.Stalls) == 0)
	if faultFree {
		if !info.Res.ProducerFinished {
			out = append(out, "fault-free run did not finish the producer")
		}
		if info.Res.Exits == 0 {
			out = append(out, "fault-free run pushed no steps through the pipeline")
		}
	}
	return out
}

// checkHeal audits self-healing completeness: a replica lost to a node
// crash with enough run time remaining must be healed (or explicitly
// degraded), unless something observable explains the silence — the
// container's local manager died too, the container went offline or
// suspect, or the run's network was lossy enough that heal rounds may
// legitimately have been eaten (drops, partitions, degraded links all
// surface as dropped/failed sends). Stall schedules are skipped
// entirely: a frozen manager heals arbitrarily late without that being
// a bug.
func checkHeal(info *RunInfo) []string {
	if info.Cfg.Policy.DisableSelfHealing {
		return nil
	}
	if f := info.File.Faults; f != nil && len(f.Stalls) > 0 {
		return nil
	}
	rt := info.RT
	if rt.Sharded() && rt.Meta().Dead() {
		// With the steal broker gone, a shard whose pool ran dry cannot
		// borrow nodes: heals legitimately strand mid-protocol.
		return nil
	}
	st := info.Res.FaultStats
	if st.CtlDropped > 0 || st.SendsFailed > 0 {
		return nil
	}
	horizon := sim.Time(info.Cfg.Steps)*info.Cfg.OutputPeriod + info.Cfg.DrainTime
	margin := 2*info.Cfg.OutputPeriod + 90*sim.Second
	down := map[int]bool{}
	for _, n := range info.Res.DownNodes {
		down[n] = true
	}
	actions := managerActions(info.RT)
	suspects := map[string]bool{}
	for _, s := range info.Res.Suspects {
		suspects[s] = true
	}
	var out []string
	for _, v := range info.Res.CrashVictims {
		if v.Manager || v.T+margin > horizon {
			continue
		}
		c := info.RT.Container(v.Container)
		if c == nil || c.State() == core.StateOffline {
			continue
		}
		if down[c.ManagerNode()] || suspects[v.Container] {
			continue
		}
		if rt.Sharded() {
			// A shard whose acting manager died (primary crashed with no
			// standby, or the standby died too) cannot run heal rounds for
			// its containers.
			if s := rt.Directory().ShardOf(v.Container); s >= 0 && rt.ShardManager(s).Dead() {
				continue
			}
		}
		healed := false
		for _, a := range actions {
			if (a.Kind == "heal" || a.Kind == "degrade") &&
				a.Target == v.Container && a.T >= v.T {
				healed = true
				break
			}
		}
		if !healed {
			out = append(out, fmt.Sprintf(
				"container %s lost a replica to node %d at %v and never healed or degraded",
				v.Container, v.Node, v.T))
		}
	}
	return out
}

// managerActions merges the action logs of every manager instance — the
// legacy primary/standby pair or every shard primary and standby — since
// a dead manager's heal records stay relevant after a failover.
func managerActions(rt *core.Runtime) []core.Action {
	var actions []core.Action
	for _, gm := range rt.Managers() {
		actions = append(actions, gm.Actions()...)
	}
	return actions
}

// checkTraceDAG audits causal-trace connectivity: every recorded span's
// parent must itself be recorded, so a flight-recorder dump never
// contains orphaned causality. Skipped when the ring overflowed (parents
// may have been legitimately evicted).
func checkTraceDAG(info *RunInfo) []string {
	tr := info.RT.Tracer()
	if tr == nil || tr.Dropped() > 0 {
		return nil
	}
	var out []string
	for _, r := range tr.MissingParents(5) { // enough to localize; the ring can hold thousands
		out = append(out, fmt.Sprintf(
			"span %d (%s/%s) references missing parent %d", r.ID, r.Cat, r.Name, r.Parent))
	}
	return out
}

// checkDualOwnership audits the cross-shard steal fence: at the end of a
// run, no staging node may be claimed by two owners. Owners are the
// containers (their replica lists) and the authoritative managers' spare
// pools. "Authoritative" means live, not deposed, not a watching standby,
// AND at the highest epoch among that shard's live candidates — an
// equal-epoch tie is exactly the fencing-disabled split brain, so BOTH
// tied pools count and any overlap surfaces as a violation. The steal
// protocol's failure mode under fencing is a leaked (unowned) node, never
// a doubly-owned one; this oracle pins that asymmetry.
func checkDualOwnership(info *RunInfo) []string {
	owners := map[int][]string{}
	var ids []int
	claim := func(node int, who string) {
		if len(owners[node]) == 0 {
			ids = append(ids, node)
		}
		owners[node] = append(owners[node], who)
	}
	for _, c := range info.RT.Containers() {
		for _, n := range c.Nodes() {
			claim(n.ID, "container "+c.Name())
		}
	}
	mgrs := info.RT.Managers()
	alive := func(gm *core.GlobalManager) bool {
		return !gm.Dead() && !gm.Deposed() && !gm.InStandby()
	}
	maxEpoch := map[int]int64{}
	for _, gm := range mgrs {
		if alive(gm) && gm.Epoch() > maxEpoch[gm.ShardID()] {
			maxEpoch[gm.ShardID()] = gm.Epoch()
		}
	}
	for _, gm := range mgrs {
		if !alive(gm) || gm.Epoch() != maxEpoch[gm.ShardID()] {
			continue
		}
		who := fmt.Sprintf("manager node %d (shard %d, epoch %d) pool",
			gm.Node(), gm.ShardID(), gm.Epoch())
		for _, n := range gm.SpareNodes() {
			claim(n.ID, who)
		}
	}
	sort.Ints(ids)
	var out []string
	for _, id := range ids {
		if os := owners[id]; len(os) > 1 {
			out = append(out, fmt.Sprintf("node %d has %d owners: %v", id, len(os), os))
		}
	}
	return out
}
