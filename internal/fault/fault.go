// Package fault provides a deterministic, virtual-time fault schedule for
// the simulated machine and the overlays built on it. A Schedule is seeded
// and driven entirely by the sim engine's clock, so a given (seed, config)
// pair always produces the same crashes, drops, and degradation windows —
// fault-tolerance experiments replay exactly.
//
// The package sits directly above internal/sim; higher layers (cluster,
// evpath, datatap, core) consult the schedule through nil-safe accessors,
// so a nil *Schedule means "no faults" and costs one branch per query.
//
// Supported fault classes:
//
//   - node crash at time t (permanent; registered OnCrash handlers fire,
//     letting each layer sever links, kill resident processes, and
//     invalidate in-flight metadata);
//   - link degradation windows (latency multiplied, bandwidth divided);
//   - network partitions (a node set unreachable from the rest for a
//     window);
//   - control-message drop windows (each overlay message dropped with a
//     given probability, from the schedule's own deterministic stream);
//   - replica stall windows (a node freezes — processes alive but making
//     no progress — then resumes).
package fault

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Config describes a fault schedule. It is JSON-friendly so scenario files
// can embed one; all times are virtual. A nil *Config means "no faults";
// every method tolerates a nil receiver (TestEmpty calls each exported
// method on a nil *Config).
type Config struct {
	// Seed feeds the schedule's private random stream (message drops).
	// Zero derives a default; the stream is separate from the engine's so
	// enabling drops does not perturb unrelated randomness.
	Seed int64
	// Crashes lists permanent node failures.
	Crashes []Crash
	// Links lists link-degradation windows applying to every transfer.
	Links []LinkFault
	// Partitions lists windows during which a node set is unreachable
	// from all other nodes (members can still talk to each other).
	Partitions []Partition
	// Drops lists windows during which control/overlay messages are
	// dropped with the given probability.
	Drops []DropWindow
	// DataDrops lists windows during which data-plane descriptor pushes
	// (DataTap metadata messages) are dropped with the given probability.
	// The transfer itself is charged; the descriptor simply never arrives,
	// so the consumer side has no idea the step exists.
	DataDrops []DropWindow
	// Stalls lists windows during which a node is frozen: resident
	// processes make no progress but are not dead.
	Stalls []Stall
	// SubCrashes lists streaming-subscriber crashes (a dashboard client
	// dying, not a machine node): the subscriber's staged buffer is lost,
	// its durable cursor survives, and — when ReconnectAt is set — it
	// reconnects and catches up through the manager's SubResume rounds.
	// Interpreted by the core runtime's subscriber fleet, not the machine.
	SubCrashes []SubCrash
}

// Crash is a permanent node failure at time At.
type Crash struct {
	Node int
	At   sim.Time
}

// LinkFault degrades every link during [From, Until): latency is multiplied
// by LatencyFactor (≥1) and bandwidth divided by SlowdownFactor (≥1).
type LinkFault struct {
	From, Until    sim.Time
	LatencyFactor  float64
	SlowdownFactor float64
}

// Partition isolates Nodes from the rest of the machine during [From,
// Until). Traffic between two members, or two non-members, is unaffected.
type Partition struct {
	From, Until sim.Time
	Nodes       []int
}

// DropWindow drops each overlay control message with probability Prob
// during [From, Until).
type DropWindow struct {
	From, Until sim.Time
	Prob        float64
}

// Stall freezes Node during [From, Until).
type Stall struct {
	Node        int
	From, Until sim.Time
}

// SubCrash kills streaming subscriber Index at At; with ReconnectAt > At
// it reconnects then and catches up from its durable cursor. ReconnectAt
// of zero means the subscriber never comes back.
type SubCrash struct {
	Index       int
	At          sim.Time
	ReconnectAt sim.Time
}

// Validate rejects obviously malformed configurations.
func (c *Config) Validate() error {
	if c == nil {
		return nil // no faults, nothing to be malformed
	}
	for _, cr := range c.Crashes {
		if cr.Node < 0 {
			return fmt.Errorf("fault: crash node %d negative", cr.Node)
		}
	}
	for _, l := range c.Links {
		if l.Until <= l.From {
			return fmt.Errorf("fault: link window [%v,%v) empty", l.From, l.Until)
		}
	}
	for _, d := range c.Drops {
		if d.Prob < 0 || d.Prob > 1 {
			return fmt.Errorf("fault: drop probability %v outside [0,1]", d.Prob)
		}
	}
	for _, d := range c.DataDrops {
		if d.Prob < 0 || d.Prob > 1 {
			return fmt.Errorf("fault: data-drop probability %v outside [0,1]", d.Prob)
		}
	}
	for _, sc := range c.SubCrashes {
		if sc.Index < 0 {
			return fmt.Errorf("fault: subscriber crash index %d negative", sc.Index)
		}
		if sc.ReconnectAt != 0 && sc.ReconnectAt <= sc.At {
			return fmt.Errorf("fault: subscriber %d reconnect %v not after crash %v",
				sc.Index, sc.ReconnectAt, sc.At)
		}
	}
	return nil
}

// Empty reports whether the config schedules no faults at all.
func (c *Config) Empty() bool {
	if c == nil {
		return true
	}
	return len(c.Crashes) == 0 && len(c.Links) == 0 &&
		len(c.Partitions) == 0 && len(c.Drops) == 0 &&
		len(c.DataDrops) == 0 && len(c.Stalls) == 0 &&
		len(c.SubCrashes) == 0
}

// Stats counts fault activity for experiment reporting.
type Stats struct {
	CrashesFired int
	CtlDropped   int64
	DataDropped  int64
	SendsFailed  int64
}

// Schedule is an armed fault plan bound to an engine. The zero of the type
// is not used; a nil *Schedule is valid everywhere and means "no faults",
// so every method must guard its nil receiver (TestNilScheduleIsFaultFree
// calls each exported method on a nil *Schedule).
type Schedule struct {
	eng     *sim.Engine
	cfg     Config
	rng     *sim.Rand
	rngData *sim.Rand // separate stream so data drops never perturb ctl drops
	down    map[int]bool
	onCrash []func(node int)
	stats   Stats
}

// NewSchedule arms cfg under eng: each crash is scheduled as an engine
// event at its time. OnCrash handlers registered before a crash fires see
// it; the usual pattern registers all handlers during setup at t=0.
func NewSchedule(eng *sim.Engine, cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x10fa17 // arbitrary fixed default; determinism is what matters
	}
	s := &Schedule{
		eng:     eng,
		cfg:     cfg,
		rng:     sim.NewRand(seed),
		rngData: sim.NewRand(seed ^ 0x7ab1e),
		down:    make(map[int]bool),
	}
	for _, cr := range cfg.Crashes {
		cr := cr
		eng.At(cr.At, func() { s.Crash(cr.Node) })
	}
	return s, nil
}

// OnCrash registers fn to run when any node crashes. Handlers run in
// registration order, inside the crash event.
func (s *Schedule) OnCrash(fn func(node int)) {
	if s == nil {
		return
	}
	s.onCrash = append(s.onCrash, fn)
}

// Crash marks node down immediately and invokes the registered handlers.
// Crashing a node twice is a no-op; tests use this to inject crashes
// without a schedule entry.
func (s *Schedule) Crash(node int) {
	if s == nil || s.down[node] {
		return
	}
	s.down[node] = true
	s.stats.CrashesFired++
	for _, fn := range s.onCrash {
		fn(node)
	}
}

// NodeUp reports whether node is alive. A nil schedule reports all nodes
// alive.
func (s *Schedule) NodeUp(node int) bool {
	if s == nil {
		return true
	}
	return !s.down[node]
}

// DownNodes returns the crashed node IDs in ascending order.
func (s *Schedule) DownNodes() []int {
	if s == nil {
		return nil
	}
	var out []int
	for id := range s.down {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// LatencyFactor returns the link-latency multiplier active now (1 when no
// window is active; overlapping windows multiply).
func (s *Schedule) LatencyFactor() float64 {
	if s == nil || len(s.cfg.Links) == 0 {
		return 1
	}
	now := s.eng.Now()
	f := 1.0
	for _, l := range s.cfg.Links {
		if now >= l.From && now < l.Until && l.LatencyFactor > 0 {
			f *= l.LatencyFactor
		}
	}
	return f
}

// SlowdownFactor returns the bandwidth divisor active now (1 when no
// window is active; overlapping windows multiply).
func (s *Schedule) SlowdownFactor() float64 {
	if s == nil || len(s.cfg.Links) == 0 {
		return 1
	}
	now := s.eng.Now()
	f := 1.0
	for _, l := range s.cfg.Links {
		if now >= l.From && now < l.Until && l.SlowdownFactor > 0 {
			f *= l.SlowdownFactor
		}
	}
	return f
}

// Partitioned reports whether traffic between nodes a and b is severed by
// an active partition window (exactly one endpoint inside the partition).
func (s *Schedule) Partitioned(a, b int) bool {
	if s == nil || len(s.cfg.Partitions) == 0 {
		return false
	}
	now := s.eng.Now()
	for _, pt := range s.cfg.Partitions {
		if now < pt.From || now >= pt.Until {
			continue
		}
		var inA, inB bool
		for _, n := range pt.Nodes {
			if n == a {
				inA = true
			}
			if n == b {
				inB = true
			}
		}
		if inA != inB {
			return true
		}
	}
	return false
}

// DropCtl decides whether one overlay control message is dropped now. It
// consumes the schedule's private random stream only while a drop window is
// active, so runs without drop windows are bit-identical to no-fault runs.
func (s *Schedule) DropCtl() bool {
	if s == nil || len(s.cfg.Drops) == 0 {
		return false
	}
	now := s.eng.Now()
	for _, d := range s.cfg.Drops {
		if now >= d.From && now < d.Until && d.Prob > 0 {
			if s.rng.Float64() < d.Prob {
				s.stats.CtlDropped++
				return true
			}
			return false
		}
	}
	return false
}

// DropData decides whether one data-plane descriptor push is dropped now.
// Like DropCtl it consumes randomness (its own stream) only while a window
// is active, so schedules without data-drop windows are bit-identical to
// no-fault runs.
func (s *Schedule) DropData() bool {
	if s == nil || len(s.cfg.DataDrops) == 0 {
		return false
	}
	now := s.eng.Now()
	for _, d := range s.cfg.DataDrops {
		if now >= d.From && now < d.Until && d.Prob > 0 {
			if s.rngData.Float64() < d.Prob {
				s.stats.DataDropped++
				return true
			}
			return false
		}
	}
	return false
}

// StallRemaining returns how much longer node stays frozen (0 when it is
// not stalled). Processes on a stalled node sleep this long before
// continuing, modelling an OS-level freeze rather than death.
func (s *Schedule) StallRemaining(node int) sim.Time {
	if s == nil || len(s.cfg.Stalls) == 0 {
		return 0
	}
	now := s.eng.Now()
	var rem sim.Time
	for _, st := range s.cfg.Stalls {
		if st.Node == node && now >= st.From && now < st.Until {
			if d := st.Until - now; d > rem {
				rem = d
			}
		}
	}
	return rem
}

// NoteSendFailed counts a failed transfer for reporting; the machine layer
// calls it when a send or RDMA pull hits a dead or partitioned endpoint.
func (s *Schedule) NoteSendFailed() {
	if s == nil {
		return
	}
	s.stats.SendsFailed++
}

// Stats returns a snapshot of fault activity.
func (s *Schedule) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return s.stats
}
