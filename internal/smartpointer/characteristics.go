// Package smartpointer implements the analytics toolkit the paper's
// pipelines run: the SmartPointer actions that ingest LAMMPS atomic data
// and annotate it for crack discovery. Each action exists twice over:
//
//   - as a real algorithm on particle snapshots (bond detection via cell
//     lists, the central-symmetry parameter, common-neighbor analysis,
//     aggregation-tree merging), exercised by the runnable examples and
//     correctness tests; and
//
//   - as a per-component cost/compute model with the characteristics of
//     the paper's Table I (complexity class, supported compute models,
//     dynamic branching), which the discrete-event experiments use to run
//     the pipeline at paper scale.
package smartpointer

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Kind identifies a SmartPointer action.
type Kind int

// The four actions of the paper's pipeline.
const (
	// KindHelper is the LAMMPS Helper aggregation tree that accepts
	// atomic bonds data from the parallel simulation.
	KindHelper Kind = iota
	// KindBonds determines whether two atoms are bonded; outputs the
	// atomic data plus an adjacency list.
	KindBonds
	// KindCSym computes the central-symmetry parameter to detect broken
	// bonds; needs one reference adjacency set from Bonds.
	KindCSym
	// KindCNA performs common-neighbor analysis for structural labeling
	// (crystals, faces, orientation).
	KindCNA
	// KindCustom is a user-defined analytics action outside the
	// SmartPointer toolkit (the paper's outlook covers S3D flame-front
	// tracking and CTH fragment detection); it is permissive — any
	// compute model — and scales by the cost model's ExponentOverride.
	KindCustom
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHelper:
		return "Helper"
	case KindBonds:
		return "Bonds"
	case KindCSym:
		return "CSym"
	case KindCNA:
		return "CNA"
	case KindCustom:
		return "Custom"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ComputeModel is how a component can use resources (paper Table I).
type ComputeModel int

// Supported compute models.
const (
	// ModelSerial runs one instance handling every timestep.
	ModelSerial ComputeModel = iota
	// ModelRR (round-robin) runs k replicas, each handling a whole
	// timestep: throughput scales with k, per-step service time does
	// not.
	ModelRR
	// ModelParallel splits one timestep across k ranks (MPI-style):
	// per-step service time shrinks with k.
	ModelParallel
	// ModelTree is a fixed aggregation tree (the Helper).
	ModelTree
)

// String implements fmt.Stringer.
func (m ComputeModel) String() string {
	switch m {
	case ModelSerial:
		return "Serial"
	case ModelRR:
		return "RR"
	case ModelParallel:
		return "Parallel"
	case ModelTree:
		return "Tree"
	}
	return fmt.Sprintf("ComputeModel(%d)", int(m))
}

// Characteristics reproduces one row of the paper's Table I.
type Characteristics struct {
	Kind Kind
	// Complexity is the printed complexity class.
	Complexity string
	// Exponent is the complexity's growth exponent in atom count.
	Exponent float64
	// Models lists the supported compute models.
	Models []ComputeModel
	// DynamicBranching reports whether the component can re-route the
	// pipeline at runtime (only Bonds, via the CSym break detection).
	DynamicBranching bool
}

// table1 holds the paper's Table I rows. It is shared: Table1 and
// CharacteristicsFor hand out copies, and ServiceTime reads it in place.
var table1 = [...]Characteristics{
	{KindHelper, "O(n)", 1, []ComputeModel{ModelTree}, false},
	{KindBonds, "O(n^2)", 2, []ComputeModel{ModelSerial, ModelRR, ModelParallel}, true},
	{KindCSym, "O(n)", 1, []ComputeModel{ModelSerial, ModelRR}, false},
	{KindCNA, "O(n^3)", 3, []ComputeModel{ModelSerial, ModelRR}, false},
}

// customRow is the permissive row of a custom component: every compute
// model, linear default scaling (override via CostModel.ExponentOverride).
var customRow = Characteristics{
	Kind:       KindCustom,
	Complexity: "custom",
	Exponent:   1,
	Models:     []ComputeModel{ModelSerial, ModelRR, ModelParallel, ModelTree},
}

// Table1 returns a copy of the paper's Table I rows.
func Table1() []Characteristics {
	rows := make([]Characteristics, len(table1))
	for i := range table1 {
		rows[i] = table1[i].clone()
	}
	return rows
}

// CharacteristicsFor returns a copy of the Table I row for a kind, or of
// customRow for KindCustom.
func CharacteristicsFor(k Kind) Characteristics { return rowFor(k).clone() }

// rowFor returns the shared row for a kind; callers must not modify it.
func rowFor(k Kind) *Characteristics {
	for i := range table1 {
		if table1[i].Kind == k {
			return &table1[i]
		}
	}
	if k == KindCustom {
		return &customRow
	}
	panic("smartpointer: unknown kind")
}

// clone copies the row with its own Models slice.
func (c *Characteristics) clone() Characteristics {
	out := *c
	out.Models = append([]ComputeModel(nil), c.Models...)
	return out
}

// Supports reports whether the component may run under model m.
func (c Characteristics) Supports(m ComputeModel) bool {
	for _, have := range c.Models {
		if have == m {
			return true
		}
	}
	return false
}

// CostModel predicts a component's per-timestep service time at paper
// scale. Service time grows with atom count following the component's
// complexity exponent, relative to a calibrated reference point:
//
//	T(n) = Base * (n / RefAtoms)^Exponent
//
// and is divided by rank count (with an efficiency factor) only under the
// Parallel model — RR replicas do not shrink per-step time, they multiply
// throughput, exactly the distinction §III-D draws when explaining what
// "increasing a container" means for each model.
type CostModel struct {
	Kind Kind
	// Base is the serial per-step service time at RefAtoms.
	Base sim.Time
	// RefAtoms anchors the scaling curve.
	RefAtoms int64
	// ParallelEff in (0,1] discounts parallel speedup per doubling.
	ParallelEff float64
	// CrackFactor multiplies service time once crack formation is in
	// the data (deformation makes neighborhoods irregular and analysis
	// slower); 0 means 1.0.
	CrackFactor float64
	// ExponentOverride, when > 0, replaces the Table I complexity
	// exponent (custom components declare their own scaling).
	ExponentOverride float64
}

// refAtoms256 is the 256-node Table II atom count, the calibration anchor.
const refAtoms256 = 8819989

// DefaultCostModels returns the calibration used by the experiments. The
// constants are chosen so that, at the paper's scales and 15 s output
// cadence, the pipeline reproduces the evaluation's qualitative behaviour:
// Helper is over-provisioned and fast, Bonds is the bottleneck whose
// required replica count grows past the staging area at 1024 nodes, CSym
// tracks linearly, and CNA is affordable only when cracks make it
// necessary.
func DefaultCostModels() map[Kind]CostModel {
	return map[Kind]CostModel{
		KindHelper: {Kind: KindHelper, Base: 2 * sim.Second, RefAtoms: refAtoms256,
			ParallelEff: 0.95},
		KindBonds: {Kind: KindBonds, Base: 48 * sim.Second, RefAtoms: refAtoms256,
			ParallelEff: 0.95, CrackFactor: 1.3},
		KindCSym: {Kind: KindCSym, Base: 8 * sim.Second, RefAtoms: refAtoms256,
			ParallelEff: 0.9, CrackFactor: 1.2},
		KindCNA: {Kind: KindCNA, Base: 60 * sim.Second, RefAtoms: refAtoms256,
			ParallelEff: 0.9, CrackFactor: 1.5},
	}
}

// ServiceTime returns the per-step service time for nAtoms under the
// given compute model with k ranks/replicas.
func (cm CostModel) ServiceTime(nAtoms int64, model ComputeModel, k int, crack bool) sim.Time {
	if k < 1 {
		k = 1
	}
	exp := rowFor(cm.Kind).Exponent
	if cm.ExponentOverride > 0 {
		exp = cm.ExponentOverride
	}
	scale := powf(float64(nAtoms)/float64(cm.RefAtoms), exp)
	t := sim.Time(float64(cm.Base) * scale)
	if crack && cm.CrackFactor > 0 {
		t = sim.Time(float64(t) * cm.CrackFactor)
	}
	if model == ModelParallel && k > 1 {
		eff := cm.ParallelEff
		if eff <= 0 || eff > 1 {
			eff = 1
		}
		// Amdahl-flavored discount: speedup = k * eff^log2(k).
		speedup := float64(k) * powf(eff, log2(float64(k)))
		if speedup < 1 {
			speedup = 1
		}
		t = sim.Time(float64(t) / speedup)
	}
	if model == ModelTree && k > 1 {
		// Tree levels add log-depth latency but split ingest.
		t = sim.Time(float64(t)/float64(k)) + sim.Time(log2(float64(k))*float64(t)*0.05)
	}
	return t
}

// ThroughputPeriod returns the minimum sustainable inter-step period for
// the model with k ranks/replicas: RR replicas divide it, parallel ranks
// shrink the service time itself.
func (cm CostModel) ThroughputPeriod(nAtoms int64, model ComputeModel, k int, crack bool) sim.Time {
	st := cm.ServiceTime(nAtoms, model, k, crack)
	if model == ModelRR && k > 1 {
		// Replicas take alternate steps: k-fold throughput.
		return st / sim.Time(k)
	}
	// Serial/Parallel/Tree process one step at a time at the (possibly
	// k-scaled) service time.
	return st
}

// ReplicasToSustain returns the smallest replica count that keeps the
// component's throughput period at or below the output period, capped at
// max (0 if even max is insufficient). Local managers use this to answer
// the global manager's "what do you need to speed up?" question.
func (cm CostModel) ReplicasToSustain(nAtoms int64, model ComputeModel, period sim.Time, crack bool, max int) int {
	for k := 1; k <= max; k++ {
		if cm.ThroughputPeriod(nAtoms, model, k, crack) <= period {
			return k
		}
	}
	return 0
}

func powf(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}

func log2(x float64) float64 { return math.Log2(x) }
