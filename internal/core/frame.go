// Package core implements the paper's contribution: I/O containers —
// runtime abstractions that embed in-situ/in-transit analytics components
// into actively managed execution environments on the staging area.
//
// Each Container owns a set of whole staging nodes and runs its
// component's replicas on them under a compute model (serial, round-robin,
// parallel, tree). A per-container local manager measures the component's
// per-timestep latency, answers the global manager's "what would it take
// to speed you up?" queries from the component's cost model, and executes
// the legs of the control protocols. The GlobalManager enforces
// cross-container SLAs: it detects the pipeline bottleneck from monitoring
// data, grows it from spare staging nodes, steals nodes from
// over-provisioned containers ("decrease"), and — when the staging area
// simply cannot sustain the load — takes non-essential containers offline
// (cascading to their downstream dependents) while upstream replicas
// switch their ADIOS output to disk with data-processing provenance.
package core

import (
	"fmt"
	"strconv"

	"repro/internal/bp"
	"repro/internal/sim"
)

// Frame attribute keys threaded through the pipeline on each step's
// process group.
const (
	// AttrBirth records (as decimal nanoseconds of virtual time) when
	// the simulation emitted the step; end-to-end latency is measured
	// against it.
	AttrBirth = "pipeline.birth"
	// AttrAtoms is the atom count driving analytics cost (shared with
	// the lammps package's writer).
	AttrAtoms = "lammps.atoms"
	// AttrCrack marks steps carrying crack formation.
	AttrCrack = "lammps.crack"
	// AttrProvenance lists analyses still pending when data lands on
	// disk after an offline transition.
	AttrProvenance = "provenance.pending"
	// AttrStepKind distinguishes "output" steps from "checkpoint" steps
	// (shared with the lammps writer).
	AttrStepKind = "lammps.kind"
)

// FrameInfo is the decoded view of a pipeline step's metadata.
type FrameInfo struct {
	Step  int64
	Atoms int64
	Crack bool
	Birth sim.Time
	// Kind is "output", "checkpoint", or "" (treated as output).
	Kind string
}

// DecodeFrame extracts FrameInfo from a process group.
func DecodeFrame(pg *bp.ProcessGroup) (FrameInfo, error) {
	fi := FrameInfo{Step: pg.Timestep}
	if v, ok := pg.Attrs[AttrAtoms]; ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fi, fmt.Errorf("core: bad %s attr %q: %w", AttrAtoms, v, err)
		}
		fi.Atoms = n
	}
	fi.Crack = pg.Attrs[AttrCrack] == "true"
	fi.Kind = pg.Attrs[AttrStepKind]
	if v, ok := pg.Attrs[AttrBirth]; ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fi, fmt.Errorf("core: bad %s attr %q: %w", AttrBirth, v, err)
		}
		fi.Birth = sim.Time(n)
	}
	return fi, nil
}
