// Package scenario loads pipeline run configurations from JSON, the way
// the paper's global manager learns the pipeline structure and
// dependencies "through a configuration file" (§III-D). A scenario file
// describes the machine split, the stage graph with per-component compute
// models and cost curves (including custom, non-SmartPointer actions),
// the workload, and the management policy. Internal tuning is fixed, not
// part of the schema, and unknown keys are rejected: a file that sets a
// removed tuning key fails to load and names the key.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/datatap"
	"repro/internal/fault"
	"repro/internal/lammps"
	"repro/internal/sim"
	"repro/internal/smartpointer"
)

// File is the JSON schema of a scenario.
type File struct {
	// SimNodes and StagingNodes partition the machine.
	SimNodes     int `json:"simNodes"`
	StagingNodes int `json:"stagingNodes"`
	// OutputPeriodSec is the simulation output cadence in (virtual)
	// seconds; 0 means the 15 s default.
	OutputPeriodSec float64 `json:"outputPeriodSec"`
	// Steps is the number of output steps.
	Steps int `json:"steps"`
	// CrackStep injects crack formation at that step (-1 = never; the
	// zero value also means never unless ExplicitCrack is set).
	CrackStep     int64 `json:"crackStep"`
	ExplicitCrack bool  `json:"explicitCrack"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// QueueCap bounds channel metadata queues.
	QueueCap int `json:"queueCap"`
	// CheckpointEvery/CheckpointNodes configure the checkpoint path.
	CheckpointEvery int `json:"checkpointEvery"`
	CheckpointNodes int `json:"checkpointNodes"`
	// AtomsOverride replaces the Table II scale derived from SimNodes.
	AtomsOverride int64 `json:"atomsOverride"`
	// MonitorSampleEverySec rate-limits monitoring reports.
	MonitorSampleEverySec float64 `json:"monitorSampleEverySec"`
	// MonitorAggregateN pre-aggregates monitoring reports.
	MonitorAggregateN int `json:"monitorAggregateN"`
	// Policy tunes the global manager.
	Policy Policy `json:"policy"`
	// Stages describes the pipeline (empty = the paper's default
	// four-stage SmartPointer pipeline with DefaultSizes).
	Stages []Stage `json:"stages"`
	// Delivery selects the data plane's delivery guarantee (nil =
	// best-effort, the legacy semantics).
	Delivery *Delivery `json:"delivery,omitempty"`
	// Shards sizes the control plane: the shard count (nil or count ≤ 1 =
	// the single global manager) and the standby per shard, which is also
	// how a single-manager run deploys its standby.
	Shards *ShardsSpec `json:"shards,omitempty"`
	// Subscribers attaches a streaming subscriber fleet — dashboards,
	// ad-hoc readers — to one stage channel's fan-out hub (nil = none).
	Subscribers *SubscribersSpec `json:"subscribers,omitempty"`
	// Faults schedules deterministic fault injection (nil = none).
	Faults *Faults `json:"faults"`
	// Chaos marks a chaos-search artifact (a shrunk regression emitted by
	// iochaos). The runtime ignores it; the regression replay harness
	// reads it to know which oracle the schedule must violate.
	Chaos *ChaosMeta `json:"chaos,omitempty"`
}

// ShardsSpec configures the sharded control plane: Count shard managers
// under one meta-manager, containers assigned by a consistent-hash ring
// seeded with Seed (0 = the scenario seed), and Standbys (0 or 1) standby
// managers per shard.
type ShardsSpec struct {
	Count    int   `json:"count"`
	Seed     int64 `json:"seed,omitempty"`
	Standbys int   `json:"standbys,omitempty"`
}

// SubscribersSpec configures the streaming fan-out fleet: Count
// subscribers on the Stage channel's hub, with read rates Zipf-distributed
// so a handful keep up at the live edge while a long tail lags into the
// spill tier.
type SubscribersSpec struct {
	Count int `json:"count"`
	// Stage indexes the stage whose input channel is fanned out (default
	// 0, the simulation's own output stream).
	Stage int `json:"stage,omitempty"`
	// BufCap / TailCap tune the hub buffers (0 = package defaults).
	BufCap  int `json:"bufCap,omitempty"`
	TailCap int `json:"tailCap,omitempty"`
	// ZipfS is the read-rate Zipf exponent (0 = default 1.0): subscriber i
	// reads every baseInterval·(i+1)^zipfS.
	ZipfS float64 `json:"zipfS,omitempty"`
	// BaseIntervalSec is the fastest subscriber's read period (0 = 1 s).
	BaseIntervalSec float64 `json:"baseIntervalSec,omitempty"`
	// InjectCursorSkip seeds the deliberate conservation bug the chaos
	// smoke test uses to prove the sub-conservation oracle fires. Never
	// set outside tests.
	InjectCursorSkip int `json:"injectCursorSkip,omitempty"`
}

// toConfig validates the section; stage bounds are checked later at build
// time, when the pipeline's channel list exists.
func (s *SubscribersSpec) toConfig() (*core.SubscribersConfig, error) {
	if s.Count < 0 {
		return nil, fmt.Errorf("scenario: field %q: %d is negative", "subscribers.count", s.Count)
	}
	if s.Stage < 0 {
		return nil, fmt.Errorf("scenario: field %q: %d is negative", "subscribers.stage", s.Stage)
	}
	if s.BufCap < 0 {
		return nil, fmt.Errorf("scenario: field %q: %d is negative", "subscribers.bufCap", s.BufCap)
	}
	if s.TailCap < 0 {
		return nil, fmt.Errorf("scenario: field %q: %d is negative", "subscribers.tailCap", s.TailCap)
	}
	if s.ZipfS < 0 {
		return nil, fmt.Errorf("scenario: field %q: %g is negative", "subscribers.zipfS", s.ZipfS)
	}
	if s.BaseIntervalSec < 0 {
		return nil, fmt.Errorf("scenario: field %q: %g is negative", "subscribers.baseIntervalSec", s.BaseIntervalSec)
	}
	if s.InjectCursorSkip < 0 {
		return nil, fmt.Errorf("scenario: field %q: %d is negative", "subscribers.injectCursorSkip", s.InjectCursorSkip)
	}
	return &core.SubscribersConfig{
		Count:            s.Count,
		Stage:            s.Stage,
		BufCap:           s.BufCap,
		TailCap:          s.TailCap,
		ZipfS:            s.ZipfS,
		BaseInterval:     sim.Time(s.BaseIntervalSec * float64(sim.Second)),
		InjectCursorSkip: s.InjectCursorSkip,
	}, nil
}

// ChaosMeta is the provenance block iochaos stamps on emitted regression
// scenarios.
type ChaosMeta struct {
	// Seed is the chaos search seed that generated the schedule.
	Seed int64 `json:"seed"`
	// ExpectViolation names the oracle this schedule violates (empty =
	// the schedule is expected to pass all oracles).
	ExpectViolation string `json:"expectViolation"`
	// Note is a human-readable description of the failure.
	Note string `json:"note,omitempty"`
}

// Delivery is the JSON form of datatap.DeliveryMode. The at-least-once
// tuning is fixed: 3 push retries from a 250 ms backoff, redelivery after
// 500 ms with 3 re-emissions before a spill, spill at 90% queue fill, and
// a 1 s repair tick draining up to 8 spilled steps.
type Delivery struct {
	// Mode is "best-effort" or "at-least-once".
	Mode string `json:"mode"`
}

// toConfig validates the section and converts it to the datatap mode.
func (d *Delivery) toConfig() (datatap.DeliveryMode, error) {
	switch d.Mode {
	case "", "best-effort":
		return datatap.DeliveryBestEffort, nil
	case "at-least-once":
		return datatap.DeliveryAtLeastOnce, nil
	}
	return 0, fmt.Errorf("scenario: field %q: unknown mode %q (want \"best-effort\" or \"at-least-once\")",
		"delivery.mode", d.Mode)
}

// Faults is the JSON fault schedule. Node references are either absolute
// machine IDs ("node") or staging-area indexes ("stagingIndex", resolved
// to simNodes+index so scenarios stay valid when the machine split
// changes).
type Faults struct {
	// Seed drives the drop-window randomness (0 = the scenario seed).
	Seed       int64            `json:"seed,omitempty"`
	Crashes    []CrashFault     `json:"crashes,omitempty"`
	Links      []LinkFault      `json:"links,omitempty"`
	Partitions []PartitionFault `json:"partitions,omitempty"`
	Drops      []DropFault      `json:"drops,omitempty"`
	DataDrops  []DropFault      `json:"dataDrops,omitempty"`
	Stalls     []StallFault     `json:"stalls,omitempty"`
	SubCrashes []SubCrashFault  `json:"subCrashes,omitempty"`
}

// NodeRef names one machine node, absolutely or staging-relative.
type NodeRef struct {
	Node         int  `json:"node,omitempty"`
	StagingIndex *int `json:"stagingIndex,omitempty"`
}

// resolve returns the absolute machine node ID.
func (r NodeRef) resolve(simNodes int) int {
	if r.StagingIndex != nil {
		return simNodes + *r.StagingIndex
	}
	return r.Node
}

// CrashFault fail-stops a node at a time.
type CrashFault struct {
	NodeRef
	AtSec float64 `json:"atSec"`
}

// LinkFault degrades every link inside a window.
type LinkFault struct {
	FromSec        float64 `json:"fromSec"`
	UntilSec       float64 `json:"untilSec"`
	LatencyFactor  float64 `json:"latencyFactor"`
	SlowdownFactor float64 `json:"slowdownFactor"`
}

// PartitionFault severs the named nodes from the rest inside a window.
type PartitionFault struct {
	FromSec  float64   `json:"fromSec"`
	UntilSec float64   `json:"untilSec"`
	Nodes    []NodeRef `json:"nodes"`
}

// DropFault drops control messages with a probability inside a window.
type DropFault struct {
	FromSec  float64 `json:"fromSec"`
	UntilSec float64 `json:"untilSec"`
	Prob     float64 `json:"prob"`
}

// StallFault freezes a node's replica inside a window.
type StallFault struct {
	NodeRef
	FromSec  float64 `json:"fromSec"`
	UntilSec float64 `json:"untilSec"`
}

// SubCrashFault kills the subscriber at Index at a time; with a reconnect
// time it comes back and catches up from its durable cursor (0 = never).
type SubCrashFault struct {
	Index          int     `json:"index"`
	AtSec          float64 `json:"atSec"`
	ReconnectAtSec float64 `json:"reconnectAtSec,omitempty"`
}

// toConfig resolves the schedule to machine node IDs. Each entry is
// validated with its JSON field path, so a bad faults entry names itself.
func (f *Faults) toConfig(simNodes int) (*fault.Config, error) {
	sec := func(s float64) sim.Time { return sim.Time(s * float64(sim.Second)) }
	fc := &fault.Config{Seed: f.Seed}
	for i, c := range f.Crashes {
		node := c.resolve(simNodes)
		if node < 0 {
			return nil, fmt.Errorf("scenario: field %q: resolved node %d is negative",
				fmt.Sprintf("faults.crashes[%d]", i), node)
		}
		fc.Crashes = append(fc.Crashes, fault.Crash{Node: node, At: sec(c.AtSec)})
	}
	for i, l := range f.Links {
		if l.UntilSec <= l.FromSec {
			return nil, fmt.Errorf("scenario: field %q: window [%gs,%gs) is empty",
				fmt.Sprintf("faults.links[%d]", i), l.FromSec, l.UntilSec)
		}
		fc.Links = append(fc.Links, fault.LinkFault{
			From: sec(l.FromSec), Until: sec(l.UntilSec),
			LatencyFactor: l.LatencyFactor, SlowdownFactor: l.SlowdownFactor})
	}
	for i, p := range f.Partitions {
		if p.UntilSec <= p.FromSec {
			return nil, fmt.Errorf("scenario: field %q: window [%gs,%gs) is empty",
				fmt.Sprintf("faults.partitions[%d]", i), p.FromSec, p.UntilSec)
		}
		part := fault.Partition{From: sec(p.FromSec), Until: sec(p.UntilSec)}
		for _, n := range p.Nodes {
			part.Nodes = append(part.Nodes, n.resolve(simNodes))
		}
		fc.Partitions = append(fc.Partitions, part)
	}
	for i, d := range f.Drops {
		if d.Prob < 0 || d.Prob > 1 {
			return nil, fmt.Errorf("scenario: field %q: probability %g outside [0,1]",
				fmt.Sprintf("faults.drops[%d].prob", i), d.Prob)
		}
		fc.Drops = append(fc.Drops, fault.DropWindow{
			From: sec(d.FromSec), Until: sec(d.UntilSec), Prob: d.Prob})
	}
	for i, d := range f.DataDrops {
		if d.Prob < 0 || d.Prob > 1 {
			return nil, fmt.Errorf("scenario: field %q: probability %g outside [0,1]",
				fmt.Sprintf("faults.dataDrops[%d].prob", i), d.Prob)
		}
		fc.DataDrops = append(fc.DataDrops, fault.DropWindow{
			From: sec(d.FromSec), Until: sec(d.UntilSec), Prob: d.Prob})
	}
	for i, s := range f.Stalls {
		if s.UntilSec <= s.FromSec {
			return nil, fmt.Errorf("scenario: field %q: window [%gs,%gs) is empty",
				fmt.Sprintf("faults.stalls[%d]", i), s.FromSec, s.UntilSec)
		}
		fc.Stalls = append(fc.Stalls, fault.Stall{
			Node: s.resolve(simNodes), From: sec(s.FromSec), Until: sec(s.UntilSec)})
	}
	for i, s := range f.SubCrashes {
		if s.Index < 0 {
			return nil, fmt.Errorf("scenario: field %q: %d is negative",
				fmt.Sprintf("faults.subCrashes[%d].index", i), s.Index)
		}
		if s.ReconnectAtSec != 0 && s.ReconnectAtSec <= s.AtSec {
			return nil, fmt.Errorf("scenario: field %q: reconnect %gs not after crash %gs",
				fmt.Sprintf("faults.subCrashes[%d]", i), s.ReconnectAtSec, s.AtSec)
		}
		fc.SubCrashes = append(fc.SubCrashes, fault.SubCrash{
			Index: s.Index, At: sec(s.AtSec), ReconnectAt: sec(s.ReconnectAtSec)})
	}
	if err := fc.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: field \"faults\": %w", err)
	}
	return fc, nil
}

// Policy mirrors core.PolicyConfig in JSON-friendly units. The policy
// ticks once per output period; its fixed tuning (2 call retries, a
// liveness probe after 4 silent intervals, offline at a backlog of
// max(4, queueCap/3)) is not part of the schema.
type Policy struct {
	OfflinePatience     int     `json:"offlinePatience"`
	DisableManagement   bool    `json:"disableManagement"`
	DisableOffline      bool    `json:"disableOffline"`
	DisableStealing     bool    `json:"disableStealing"`
	TransactionalTrades bool    `json:"transactionalTrades"`
	KillGMAtSec         float64 `json:"killGMAtSec"`
	// DisableSelfHealing turns off the replica-restart protocol.
	DisableSelfHealing bool `json:"disableSelfHealing"`
	// CallTimeoutSec is the first control-round deadline (0 = 30 s);
	// each of the 2 retries doubles it.
	CallTimeoutSec float64 `json:"callTimeoutSec"`
	// DisableFencing restores the legacy, pre-epoch-fencing failover
	// (the split-brain chaos regressions reproduce under this).
	DisableFencing bool `json:"disableFencing"`
}

// Stage describes one pipeline component.
type Stage struct {
	Name string `json:"name"`
	// Kind is "Helper", "Bonds", "CSym", "CNA", or "Custom".
	Kind string `json:"kind"`
	// Model is "Serial", "RR", "Parallel", or "Tree".
	Model string `json:"model"`
	// Nodes is the initial container size.
	Nodes int `json:"nodes"`
	// OutputFactor scales output volume relative to input.
	OutputFactor float64 `json:"outputFactor"`
	Essential    bool    `json:"essential"`
	MinSize      int     `json:"minSize"`
	// ActivateOnCrack / DeactivateOnCrack wire the dynamic branch.
	ActivateOnCrack   bool `json:"activateOnCrack"`
	DeactivateOnCrack bool `json:"deactivateOnCrack"`
	// DiskOutput marks a stable-storage terminal stage; SLAPeriods
	// relaxes its deadline.
	DiskOutput bool `json:"diskOutput"`
	SLAPeriods int  `json:"slaPeriods"`
	// Cost overrides the default cost model (required for Custom).
	Cost *Cost `json:"cost,omitempty"`
}

// Cost is a JSON cost model.
type Cost struct {
	BaseSec          float64 `json:"baseSec"`
	RefAtoms         int64   `json:"refAtoms"`
	ParallelEff      float64 `json:"parallelEff"`
	CrackFactor      float64 `json:"crackFactor"`
	ExponentOverride float64 `json:"exponentOverride"`
}

// ParseKind maps a kind name to its enum value.
func ParseKind(s string) (smartpointer.Kind, error) {
	switch strings.ToLower(s) {
	case "helper":
		return smartpointer.KindHelper, nil
	case "bonds":
		return smartpointer.KindBonds, nil
	case "csym":
		return smartpointer.KindCSym, nil
	case "cna":
		return smartpointer.KindCNA, nil
	case "custom":
		return smartpointer.KindCustom, nil
	}
	return 0, fmt.Errorf("scenario: unknown kind %q", s)
}

// ParseModel maps a compute-model name to its enum value.
func ParseModel(s string) (smartpointer.ComputeModel, error) {
	switch strings.ToLower(s) {
	case "serial":
		return smartpointer.ModelSerial, nil
	case "rr", "roundrobin", "round-robin":
		return smartpointer.ModelRR, nil
	case "parallel", "mpi":
		return smartpointer.ModelParallel, nil
	case "tree":
		return smartpointer.ModelTree, nil
	}
	return 0, fmt.Errorf("scenario: unknown compute model %q", s)
}

// ToConfig converts the file to a runnable core.Config.
func (f *File) ToConfig() (core.Config, error) {
	cfg := core.Config{
		SimNodes:        f.SimNodes,
		StagingNodes:    f.StagingNodes,
		OutputPeriod:    sim.Time(f.OutputPeriodSec * float64(sim.Second)),
		Steps:           f.Steps,
		CrackStep:       -1,
		QueueCap:        f.QueueCap,
		Seed:            f.Seed,
		CheckpointEvery: f.CheckpointEvery,
		CheckpointNodes: f.CheckpointNodes,
		MonitorSampleEvery: sim.Time(
			f.MonitorSampleEverySec * float64(sim.Second)),
		MonitorAggregateN: f.MonitorAggregateN,
		Policy: core.PolicyConfig{
			OfflinePatience:     f.Policy.OfflinePatience,
			DisableManagement:   f.Policy.DisableManagement,
			DisableOffline:      f.Policy.DisableOffline,
			DisableStealing:     f.Policy.DisableStealing,
			TransactionalTrades: f.Policy.TransactionalTrades,
			KillGMAt:            sim.Time(f.Policy.KillGMAtSec * float64(sim.Second)),
			DisableSelfHealing:  f.Policy.DisableSelfHealing,
			CallTimeout:         sim.Time(f.Policy.CallTimeoutSec * float64(sim.Second)),
			DisableFencing:      f.Policy.DisableFencing,
		},
	}
	if f.Shards != nil {
		if f.Shards.Count < 0 {
			return cfg, fmt.Errorf("scenario: field %q: %d is negative",
				"shards.count", f.Shards.Count)
		}
		if f.Shards.Standbys < 0 || f.Shards.Standbys > 1 {
			return cfg, fmt.Errorf("scenario: field %q: %d outside [0,1]",
				"shards.standbys", f.Shards.Standbys)
		}
		cfg.Shards = f.Shards.Count
		cfg.ShardSeed = f.Shards.Seed
		cfg.ShardStandbys = f.Shards.Standbys
	}
	if f.Delivery != nil {
		mode, err := f.Delivery.toConfig()
		if err != nil {
			return cfg, err
		}
		cfg.Delivery = mode
	}
	if f.Subscribers != nil {
		sc, err := f.Subscribers.toConfig()
		if err != nil {
			return cfg, err
		}
		cfg.Subscribers = sc
	}
	if f.Faults != nil {
		fc, err := f.Faults.toConfig(f.SimNodes)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = fc
	}
	if f.ExplicitCrack || f.CrackStep > 0 {
		cfg.CrackStep = f.CrackStep
	}
	if f.AtomsOverride > 0 {
		cfg.Scale = lammps.Scale{
			Nodes:     f.SimNodes,
			AtomCount: f.AtomsOverride,
			StepBytes: f.AtomsOverride * 8,
		}
	}
	if len(f.Stages) == 0 {
		cfg.Sizes = core.DefaultSizes(f.StagingNodes)
		return cfg, nil
	}
	defaults := smartpointer.DefaultCostModels()
	cfg.Sizes = map[string]int{}
	for i, st := range f.Stages {
		kind, err := ParseKind(st.Kind)
		if err != nil {
			return cfg, fmt.Errorf("scenario: field %q: unknown kind %q",
				fmt.Sprintf("stages[%d].kind", i), st.Kind)
		}
		model, err := ParseModel(st.Model)
		if err != nil {
			return cfg, fmt.Errorf("scenario: field %q: unknown compute model %q",
				fmt.Sprintf("stages[%d].model", i), st.Model)
		}
		spec := core.ComponentSpec{
			Name:              st.Name,
			Kind:              kind,
			Model:             model,
			OutputFactor:      st.OutputFactor,
			Essential:         st.Essential,
			MinSize:           st.MinSize,
			ActivateOnCrack:   st.ActivateOnCrack,
			DeactivateOnCrack: st.DeactivateOnCrack,
			DiskOutput:        st.DiskOutput,
			SLAPeriods:        st.SLAPeriods,
		}
		if st.Cost != nil {
			spec.Cost = smartpointer.CostModel{
				Kind:             kind,
				Base:             sim.Time(st.Cost.BaseSec * float64(sim.Second)),
				RefAtoms:         st.Cost.RefAtoms,
				ParallelEff:      st.Cost.ParallelEff,
				CrackFactor:      st.Cost.CrackFactor,
				ExponentOverride: st.Cost.ExponentOverride,
			}
			if spec.Cost.RefAtoms == 0 {
				spec.Cost.RefAtoms = lammps.ScaleForNodes(256).AtomCount
			}
		} else {
			cm, ok := defaults[kind]
			if !ok {
				return cfg, fmt.Errorf("scenario: field %q: stage %q (kind %s) needs an explicit cost model",
					fmt.Sprintf("stages[%d].cost", i), st.Name, st.Kind)
			}
			spec.Cost = cm
		}
		if err := spec.Validate(); err != nil {
			return cfg, fmt.Errorf("scenario: field %q: %w",
				fmt.Sprintf("stages[%d]", i), err)
		}
		cfg.Specs = append(cfg.Specs, spec)
		n := st.Nodes
		if n <= 0 {
			n = 1
		}
		cfg.Sizes[st.Name] = n
	}
	return cfg, nil
}

// describeDecodeError turns an encoding/json error into a message that names
// the offending field path (for type mismatches) or byte offset (for syntax
// errors), so a broken scenario file points at itself.
func describeDecodeError(err error) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		field := te.Field
		if field == "" {
			field = "(document root)"
		}
		return fmt.Errorf("scenario: field %q: cannot decode JSON %s into %s (byte %d)",
			field, te.Value, te.Type, te.Offset)
	}
	var se *json.SyntaxError
	if errors.As(err, &se) {
		return fmt.Errorf("scenario: invalid JSON at byte %d: %w", se.Offset, se)
	}
	return fmt.Errorf("scenario: %w", err)
}

// Read parses a scenario file from r without converting it, for harnesses
// (like the chaos search) that mutate the schedule before building a run.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, describeDecodeError(err)
	}
	return &f, nil
}

// ReadFile parses a scenario file from disk without converting it.
func ReadFile(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f, err := Read(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Load parses a scenario from r.
func Load(r io.Reader) (core.Config, error) {
	f, err := Read(r)
	if err != nil {
		return core.Config{}, err
	}
	return f.ToConfig()
}

// LoadFile parses a scenario from a JSON file. Errors are prefixed with the
// file path so multi-scenario harnesses report which file is broken.
func LoadFile(path string) (core.Config, error) {
	f, err := ReadFile(path)
	if err != nil {
		return core.Config{}, err
	}
	cfg, err := f.ToConfig()
	if err != nil {
		return core.Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}
