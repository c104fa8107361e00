// Package iocontainer is a Go implementation of the I/O container
// middleware of Dayal et al., "I/O Containers: Managing the Data Analytics
// and Visualization Pipelines of High End Codes" (IPDPS 2013), together
// with every substrate the paper's evaluation depends on: a
// discrete-event machine model, an EVPath-style event overlay, the
// DataTap/DataStager asynchronous staged transport, an ADIOS-like I/O API
// over a BP-like pack format, a LAMMPS molecular-dynamics workload
// surrogate, the SmartPointer analytics (Bonds, CSym, CNA, Helper — real
// algorithms plus calibrated cost models), and D2T doubly-distributed
// transactions.
//
// The central abstraction is the managed pipeline: analytics components
// run inside containers on a staging-area partition, local managers
// measure per-step latency and answer resource queries, and a global
// manager enforces SLAs by growing bottlenecks from spare nodes, stealing
// from over-provisioned containers, or taking stages offline with
// provenance-stamped disk output.
//
// Quick start:
//
//	cfg := iocontainer.Config{
//		SimNodes:     256,
//		StagingNodes: 13,
//		Sizes:        iocontainer.DefaultSizes(13),
//		Steps:        20,
//	}
//	rt, err := iocontainer.Build(cfg)
//	if err != nil { ... }
//	res, err := rt.Run()
//	// res.Actions holds the management decisions; res.Recorder the
//	// per-container latency series.
//
// Everything runs on a deterministic virtual clock: scenarios spanning
// thousands of virtual seconds execute in milliseconds and reproduce
// exactly from a seed.
//
// The managers tick once per output period. Internal tuning is fixed
// rather than configurable: a pipeline always runs on the Franklin model
// with 4 GiB DataTap writer buffers and contiguous node placement; a
// timed-out control round gets 2 retries; a container silent for 4
// intervals is probed; a bottleneck goes offline at a backlog of
// max(4, QueueCap/3); and at-least-once channels use 3 push retries, a
// 500 ms redelivery delay and a 90% spill threshold.
package iocontainer

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/lammps"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/txn"
)

// Time is virtual simulation time (nanoseconds).
type Time = sim.Time

// Common virtual durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Simulation kernel.
type (
	// Engine is the discrete-event scheduler everything runs on.
	Engine = sim.Engine
	// Proc is a simulated process.
	Proc = sim.Proc
)

// NewEngine returns a deterministic simulation engine.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// NewMachine builds a simulated machine under the engine.
func NewMachine(eng *Engine, cfg MachineConfig) *Machine { return cluster.New(eng, cfg) }

// NewTransaction builds a D2T transaction over the machine (mach may be
// nil for a cost-free protocol run).
func NewTransaction(eng *Engine, mach *Machine, cfg TxnConfig) (*Transaction, error) {
	return txn.New(eng, mach, cfg)
}

// Pipeline assembly and management (the paper's contribution).
type (
	// Config assembles a complete managed pipeline run.
	Config = core.Config
	// PolicyConfig tunes the global manager's SLA enforcement: the round
	// deadline, offline patience, trades and ablation switches.
	PolicyConfig = core.PolicyConfig
	// ComponentSpec describes one analytics stage.
	ComponentSpec = core.ComponentSpec
	// Runtime is an assembled pipeline.
	Runtime = core.Runtime
	// Result summarizes a completed run.
	Result = core.Result
	// Action is one management decision.
	Action = core.Action
	// Container is a managed component instance.
	Container = core.Container
	// GlobalManager enforces cross-container SLAs.
	GlobalManager = core.GlobalManager
)

// Build assembles a managed pipeline from cfg.
func Build(cfg Config) (*Runtime, error) { return core.Build(cfg) }

// LoadScenario reads a JSON scenario file (pipeline structure, stage
// dependencies, cost models, policy) into a runnable Config — the
// configuration-file path the paper's global manager is driven by.
func LoadScenario(path string) (Config, error) { return scenario.LoadFile(path) }

// LoadScenarioJSON parses a JSON scenario from r.
func LoadScenarioJSON(r io.Reader) (Config, error) { return scenario.Load(r) }

// KindCustom is the kind for user-defined analytics actions; see the
// Kind constants for the SmartPointer toolkit's own actions.
const KindCustom = smartpointer.KindCustom

// DefaultSpecs returns the paper's four-stage SmartPointer pipeline.
func DefaultSpecs() []ComponentSpec { return core.DefaultSpecs() }

// SpecsWithBondsModel returns DefaultSpecs with Bonds under the given
// compute model (the larger weak-scaling runs use Parallel).
func SpecsWithBondsModel(m ComputeModel) []ComponentSpec {
	return core.SpecsWithBondsModel(m)
}

// DefaultSizes returns the paper's initial container sizing for a staging
// area of the given width.
func DefaultSizes(stagingNodes int) map[string]int { return core.DefaultSizes(stagingNodes) }

// Analytics characteristics and cost models (paper Table I).
type (
	// Kind identifies a SmartPointer action.
	Kind = smartpointer.Kind
	// ComputeModel is how a component uses resources.
	ComputeModel = smartpointer.ComputeModel
	// Characteristics is one Table I row.
	Characteristics = smartpointer.Characteristics
	// CostModel predicts per-step service time at scale.
	CostModel = smartpointer.CostModel
)

// SmartPointer action kinds.
const (
	KindHelper = smartpointer.KindHelper
	KindBonds  = smartpointer.KindBonds
	KindCSym   = smartpointer.KindCSym
	KindCNA    = smartpointer.KindCNA
)

// Compute models.
const (
	ModelSerial   = smartpointer.ModelSerial
	ModelRR       = smartpointer.ModelRR
	ModelParallel = smartpointer.ModelParallel
	ModelTree     = smartpointer.ModelTree
)

// Table1 returns the paper's Table I rows.
func Table1() []Characteristics { return smartpointer.Table1() }

// DefaultCostModels returns the calibrated per-component cost models.
func DefaultCostModels() map[Kind]CostModel { return smartpointer.DefaultCostModels() }

// Workload scaling (paper Table II).
type (
	// Scale relates simulation node count to atoms and output volume.
	Scale = lammps.Scale
	// Workload drives the simulated LAMMPS run.
	Workload = lammps.Workload
)

// Table2 returns the paper's Table II rows.
func Table2() []Scale { return lammps.Table2() }

// ScaleForNodes returns the workload scale for a node count.
func ScaleForNodes(nodes int) Scale { return lammps.ScaleForNodes(nodes) }

// Fault injection: deterministic, seeded schedules of node crashes, link
// degradation, partitions, control-message drops, and replica stalls.
// Attach one via Config.Faults; containers then self-heal crashed
// replicas from the spare pool (disable with
// PolicyConfig.DisableSelfHealing).
type (
	// FaultConfig schedules deterministic fault injection.
	FaultConfig = fault.Config
	// FaultCrash fail-stops one node at a virtual time.
	FaultCrash = fault.Crash
	// FaultLink degrades every link inside a time window.
	FaultLink = fault.LinkFault
	// FaultPartition severs a node set from the rest inside a window.
	FaultPartition = fault.Partition
	// FaultDrop drops control messages with a probability inside a window.
	FaultDrop = fault.DropWindow
	// FaultStall freezes a node's replica inside a window.
	FaultStall = fault.Stall
	// FaultStats summarizes injected-fault activity after a run.
	FaultStats = fault.Stats
)

// Machine models.
type (
	// MachineConfig describes a simulated machine.
	MachineConfig = cluster.Config
	// Machine is a simulated high-end machine.
	Machine = cluster.Machine
)

// Franklin returns the NERSC Franklin Cray XT4 machine model (the
// container experiments' testbed).
func Franklin() MachineConfig { return cluster.Franklin() }

// RedSky returns the Sandia RedSky machine model (the transaction
// experiments' testbed).
func RedSky() MachineConfig { return cluster.RedSky() }

// Transactions (D2T, paper Fig. 6).
type (
	// TxnConfig parameterizes one doubly-distributed transaction. The
	// sub-coordination trees have fan-out 8, messages are 256 B, and each
	// participant does 1 ms of local work before voting.
	TxnConfig = txn.Config
	// TxnStats reports a completed transaction.
	TxnStats = txn.Stats
	// Transaction is a runnable D2T instance.
	Transaction = txn.Transaction
	// TxnOutcome is a transaction decision.
	TxnOutcome = txn.Outcome
)

// Transaction outcomes.
const (
	TxnCommitted = txn.Committed
	TxnAborted   = txn.Aborted
)

// Experiments (the paper's tables and figures).
type (
	// Experiment regenerates one paper artifact.
	Experiment = experiments.Experiment
	// ExperimentOutput is an experiment's rendered result.
	ExperimentOutput = experiments.Output
)

// Experiments returns every table/figure generator in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns the named experiment ("table1", "fig7", ...).
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// Recording.
type (
	// Recorder collects named time series and markers.
	Recorder = metrics.Recorder
	// Table renders aligned text/CSV tables.
	Table = metrics.Table
)
