package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/datatap"
	"repro/internal/evpath"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The subscriber control plane (DESIGN.md §15) is the reconnect leg of
// the streaming fan-out in internal/datatap/subscribe.go. The data plane
// alone handles tiers 1 and 2 of the robustness ladder (per-subscriber
// backpressure, degrade-to-spill); tier 3 — a crashed subscriber coming
// back — needs the managers, because reviving a cursor is a mutating
// control decision that must survive manager failover without double
// effects:
//
//	reconnecting subscriber ─SubNotice→ host container's manager pump
//	  └─ next tick: SubResumeReq round (epoch-fenced, retried, deduped)
//	       └─ lag still in the tail? SubReplayReq round restages it
//
// SubNotice is a pump message like GapNotice: it carries the subscriber's
// reconnect generation so a storm of duplicate notices for the same
// subscriber collapses to one resume round. SubResume/SubReplay are
// full container rounds: they ride the manager's retry/backoff machinery,
// are deduplicated by the container's served cache, and are refused by the
// epoch fence when a deposed manager issues them — the container-side
// serve (SubHub.Resume/Replay) is idempotent on top of that, so even a
// round that executes twice across a failover cannot corrupt a cursor.
//
// The Req/Resp pairs below embed RoundHdr and carry a SubID. They are
// ordinary container rounds: the compiler holds them to the roundReq
// interface gm.call takes, and managerLoop serves them with the other
// rounds. SubNotice embeds no header: it is served by the manager's
// notice pump, not as a round.

// Subscriber round message types on the management overlay.
const (
	msgSubNotice = "ctl.sub_notice" // container -> manager: subscriber reconnected
	msgSubResume = "ctl.sub_resume" // manager -> container: revive the cursor
	msgSubReplay = "ctl.sub_replay" // manager -> container: restage the tail window
)

// SubNotice announces a reconnecting (or late-joining) subscriber to the
// host container's manager. Like GapNotice it is a pump message, not a
// synchronous round: the manager dedupes notices per subscriber (keeping
// the highest generation) and issues the SubResume round at its next tick.
type SubNotice struct {
	Gen   int64 // reconnect generation (dedupe key together with SubID)
	SubID string
	From  string // host container name
}

// SubResumeReq asks the container hosting the subscriber hub to revive a
// crashed subscriber at its durable cursor.
type SubResumeReq struct {
	RoundHdr
	SubID string
}

// SubResumeResp reports the revived subscriber's position. FromSpill means
// catch-up starts in the spill store (the subscriber pays disk reads);
// NeedReplay means the remaining lag is still in the hub's tail and a
// SubReplay round should restage it. Ok is false for an unknown
// subscriber.
type SubResumeResp struct {
	RoundHdr
	SubID      string
	Cursor     int64
	Lag        int64
	FromSpill  bool
	NeedReplay bool
	Ok         bool
}

// SubReplayReq asks the container to restage the tail window past the
// given cursor for a resumed subscriber.
type SubReplayReq struct {
	RoundHdr
	SubID  string
	Cursor int64
}

// SubReplayResp reports how many descriptors are staged after the replay.
type SubReplayResp struct {
	RoundHdr
	SubID  string
	Staged int64
	Ok     bool
}

func (*SubResumeReq) kind() string { return msgSubResume }
func (*SubReplayReq) kind() string { return msgSubReplay }

// serveSubResume is the container-side leg of a SubResume round (nil-safe:
// a round aimed at a container without a hub answers Ok=false instead of
// dying).
func (c *Container) serveSubResume(id string) (cursor, lag int64, fromSpill, ok bool) {
	if c.subHub == nil {
		return 0, 0, false, false
	}
	return c.subHub.Resume(id)
}

// serveSubReplay is the container-side leg of a SubReplay round.
func (c *Container) serveSubReplay(id string, from int64) (staged int64, ok bool) {
	if c.subHub == nil {
		return 0, false
	}
	return c.subHub.Replay(id, from)
}

// noteSubReconnect reports a reconnecting subscriber up the control
// bridge, following the GapNotice pattern. The manager answers with a
// SubResume round at its next tick.
func (c *Container) noteSubReconnect(subID string, gen int64) {
	if c.state == StateOffline || c.toGM == nil {
		return
	}
	c.toGM.Submit(&evpath.Event{Type: msgSubNotice, Size: ctlMsgBytes,
		Data: &SubNotice{Gen: gen, SubID: subID, From: c.spec.Name}})
}

// SubResume runs the epoch-fenced resume round for one reconnecting
// subscriber: the container revives the durable cursor and reports where
// catch-up must come from.
func (gm *GlobalManager) SubResume(p *sim.Proc, target, subID string) *SubResumeResp {
	resp, _ := gm.call(p, target, &SubResumeReq{SubID: subID}).(*SubResumeResp)
	if resp != nil && resp.Ok {
		gm.record(p, Action{T: p.Now(), Kind: "sub-resume", Target: target,
			Detail: fmt.Sprintf("subscriber %s cursor %d lag %d", subID,
				resp.Cursor, resp.Lag)})
	}
	return resp
}

// SubReplay runs the replay round that restages the hub tail for a
// resumed subscriber whose lag never left memory.
func (gm *GlobalManager) SubReplay(p *sim.Proc, target, subID string, cursor int64) *SubReplayResp {
	resp, _ := gm.call(p, target, &SubReplayReq{SubID: subID, Cursor: cursor}).(*SubReplayResp)
	if resp != nil && resp.Ok {
		gm.record(p, Action{T: p.Now(), Kind: "sub-replay", Target: target,
			N: int(resp.Staged), Detail: "subscriber " + subID})
	}
	return resp
}

// issueSubResumes serves the SubNotices accumulated since the last tick:
// one SubResume round per reconnecting subscriber (plus the follow-up
// SubReplay when the lag is still tail-resident), in sorted subscriber
// order for determinism. Entries are cleared before calling so a notice
// arriving during the round is not lost. Like issueResends this is data-
// plane repair, not policy — it runs even under DisableManagement.
func (gm *GlobalManager) issueSubResumes(p *sim.Proc) {
	if len(gm.pendingSubs) == 0 {
		return
	}
	ids := make([]string, 0, len(gm.pendingSubs))
	for id := range gm.pendingSubs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := gm.pendingSubs[id]
		delete(gm.pendingSubs, id)
		if _, ok := gm.toContainer[n.From]; !ok {
			continue // not this manager's container; its own shard heard the notice
		}
		resp := gm.SubResume(p, n.From, id)
		if resp != nil && resp.Ok && resp.NeedReplay {
			gm.SubReplay(p, n.From, id, resp.Cursor)
		}
	}
}

// --- subscriber fleet wiring (the "million dashboards" workload) ---

// SubscribersConfig attaches a simulated subscriber fleet — dashboards,
// ad-hoc readers — to one stage channel's fan-out hub.
type SubscribersConfig struct {
	// Count is the number of subscribers.
	Count int
	// Stage selects the channel whose output is fanned out (default 0,
	// the simulation's own output stream).
	Stage int
	// BufCap / TailCap tune the hub (see datatap.SubConfig).
	BufCap, TailCap int
	// DisableSpill turns the degrade tier off: lagging subscribers take
	// knowing drops instead of spill reads.
	DisableSpill bool
	// ZipfS is the Zipf exponent of the read-rate distribution:
	// subscriber i reads every BaseInterval·(i+1)^ZipfS (default 1.0), so
	// a handful keep up and a long tail lags into spill.
	ZipfS float64
	// BaseInterval is the fastest subscriber's read period (default 1 s).
	BaseInterval sim.Time
	// InjectCursorSkip seeds the deliberate conservation bug the chaos
	// smoke test uses to prove the sub-conservation oracle fires (see
	// datatap.SubConfig). Never set outside tests.
	InjectCursorSkip int
}

// buildSubscribers attaches the hub and starts the fleet: one paced
// dashboard per subscriber (an event chain, not a process), the
// crash/reconnect supervisor for the fault schedule's SubCrashes, and the
// host-container wiring that lets the manager serve SubResume/SubReplay
// rounds.
func (rt *Runtime) buildSubscribers(cfg Config) error {
	sc := cfg.Subscribers
	if sc == nil || sc.Count <= 0 {
		return nil
	}
	stage := sc.Stage
	if stage < 0 || stage >= len(rt.channels) {
		return fmt.Errorf("core: Subscribers.Stage %d out of range (%d channels)",
			stage, len(rt.channels))
	}
	ch := rt.channels[stage]
	hub := ch.AttachHub(datatap.SubConfig{BufCap: sc.BufCap, TailCap: sc.TailCap,
		DisableSpill: sc.DisableSpill, InjectCursorSkip: sc.InjectCursorSkip})
	rt.subHub = hub
	// The hub is served by the container consuming the stage channel: its
	// local manager owns the hub for control rounds.
	host := rt.byName[cfg.Specs[stage].Name]
	if host == nil {
		return fmt.Errorf("core: Subscribers.Stage %d has no consumer container", stage)
	}
	host.subHub = hub
	rt.subHost = host

	zipfS := sc.ZipfS
	if zipfS <= 0 {
		zipfS = 1.0
	}
	base := sc.BaseInterval
	if base <= 0 {
		base = sim.Second
	}
	node := ch.HomeNode()
	subs := make([]*datatap.Subscriber, sc.Count)
	for i := 0; i < sc.Count; i++ {
		id := fmt.Sprintf("dash-%04d", i)
		s := hub.Subscribe(id, node)
		subs[i] = s
		d := &dashboard{eng: rt.eng, sub: s,
			interval: sim.Time(float64(base) * math.Pow(float64(i+1), zipfS))}
		d.fetchFn, d.readFn = d.fetch, d.read
		rt.eng.At(rt.eng.Now(), d.fetchFn)
	}
	if rt.cfg.Faults != nil {
		for _, f := range rt.cfg.Faults.SubCrashes {
			if f.Index < 0 || f.Index >= len(subs) {
				return fmt.Errorf("core: SubCrash index %d out of range (%d subscribers)",
					f.Index, len(subs))
			}
			s := subs[f.Index]
			f := f
			rt.eng.At(f.At, func() { hub.Crash(s.ID()) })
			if f.ReconnectAt > f.At {
				rt.reconnect(s, f.ReconnectAt)
			}
		}
	}
	return nil
}

// dashboard is one paced reader: fetch the next descriptor (parked on
// the hub — never a writer — when nothing is pending), then dwell for the
// read period, until the hub closes and the backlog is drained. It runs
// as engine events; fetchFn and readFn are its methods, bound once.
type dashboard struct {
	eng      *sim.Engine
	sub      *datatap.Subscriber
	interval sim.Time
	fetchFn  func()
	readFn   func(*datatap.Meta, bool)
}

func (d *dashboard) fetch() { d.sub.FetchThen(d.readFn) }

func (d *dashboard) read(_ *datatap.Meta, ok bool) {
	if ok {
		d.eng.After(d.interval, d.fetchFn)
	}
}

// reconnect announces a crashed subscriber's return at virtual time at,
// retrying with exponential backoff until the manager's SubResume round
// actually lands (the notice, the round, or the manager itself may be
// lost to faults). Bounded: a subscriber whose manager never answers
// stays crashed, which the conservation oracle still accounts for
// exactly.
func (rt *Runtime) reconnect(s *datatap.Subscriber, at sim.Time) {
	backoff := rt.cfg.OutputPeriod
	attempts := 0
	var try func()
	try = func() {
		if attempts == 4 || !s.Crashed() {
			return // resumed (or never crashed: the crash fault may have been shrunk away)
		}
		attempts++
		rt.subHost.noteSubReconnect(s.ID(), s.Gen())
		rt.eng.After(backoff, try)
		backoff *= 2
	}
	rt.eng.At(at, try)
}

// SubCrashes exposes the armed subscriber-crash schedule (nil without
// faults), for tests.
func (rt *Runtime) SubCrashes() []fault.SubCrash {
	if rt.cfg.Faults == nil {
		return nil
	}
	return rt.cfg.Faults.SubCrashes
}
