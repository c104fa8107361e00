// Package chaos is a deterministic fault-schedule search harness in the
// style of FoundationDB's simulation testing: seeded random schedules of
// crashes, link degradation, partitions, control-message drops, and
// replica stalls are generated over a base scenario, each schedule runs
// in the deterministic simulator, and a suite of invariant oracles
// audits the completed run (chunk conservation, single-writer epochs,
// D2T same-decision, convergence, heal completeness, trace-DAG
// connectivity). Failing schedules are delta-debugged down to a minimal
// fault set and emitted as runnable scenario JSON, which the regression
// corpus under scenarios/regressions/ replays in go test forever after.
//
// Everything is driven by explicit seeds through sim.NewRand, so a given
// (base scenario, seed) pair always generates the same schedule, runs
// the same virtual-time history, and produces byte-identical results.
package chaos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// chaosRingCap sizes the flight-recorder ring for chaos runs: large
// enough that typical schedules drop nothing, so the trace-DAG oracle
// can audit parent links over the complete span set. The ring grows in
// chunks as records arrive, so the cap costs nothing until it is
// filled: a chaos run keeps about 800 records, roughly 100 KB of slots.
const chaosRingCap = 1 << 18

// RunInfo bundles everything one completed (or failed) run exposes to
// the oracles.
type RunInfo struct {
	// File is the scenario actually run (base with the schedule's faults
	// swapped in).
	File *scenario.File
	// Cfg is the effective, default-filled core configuration.
	Cfg core.Config
	// RT is the runtime after Run returned (oracles may inspect
	// channels, managers, the engine, and the tracer).
	RT *core.Runtime
	// Res is the run result (nil when Err is set).
	Res *core.Result
	// Err is the build or run error, if any.
	Err error
}

// Violation is one oracle failure.
type Violation struct {
	// Oracle names the violated invariant.
	Oracle string
	// Detail describes the specific failure deterministically (no
	// map-order or timing nondeterminism), so identical runs produce
	// byte-identical reports.
	Detail string
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// Oracle is one named invariant check over a completed run.
type Oracle struct {
	Name string
	// Check returns one detail string per violation found (nil/empty =
	// the invariant held).
	Check func(info *RunInfo) []string
}

// RunSchedule runs the base scenario with the given fault schedule
// swapped in and returns the run for oracle inspection. The base file is
// not mutated.
func RunSchedule(base *scenario.File, faults *scenario.Faults) *RunInfo {
	f := *base
	f.Faults = faults
	f.Chaos = nil
	info := &RunInfo{File: &f}
	cfg, err := f.ToConfig()
	if err != nil {
		info.Err = err
		return info
	}
	cfg.Trace = &trace.Config{RingCap: chaosRingCap}
	rt, err := core.Build(cfg)
	if err != nil {
		info.Err = err
		return info
	}
	info.RT = rt
	info.Cfg = rt.Config() // effective (default-filled) configuration
	res, err := rt.Run()
	if err != nil {
		info.Err = err
		return info
	}
	info.Res = res
	return info
}

// CheckOracles audits a run against the given oracle suite. A build or
// run error is itself a violation (of the implicit "no-error" oracle);
// the other oracles are skipped in that case, since there is no
// completed run to audit.
func CheckOracles(info *RunInfo, oracles []Oracle) []Violation {
	if info.Err != nil {
		return []Violation{{Oracle: "no-error", Detail: info.Err.Error()}}
	}
	var out []Violation
	for _, o := range oracles {
		for _, d := range o.Check(info) {
			out = append(out, Violation{Oracle: o.Name, Detail: d})
		}
	}
	return out
}

// Violates reports whether running the schedule violates the named
// oracle ("no-error" matches build/run failures).
func Violates(base *scenario.File, faults *scenario.Faults, oracle string, oracles []Oracle) bool {
	info := RunSchedule(base, faults)
	for _, v := range CheckOracles(info, oracles) {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// Summarize renders a fault schedule as one deterministic line for
// reports and test failures.
func Summarize(f *scenario.Faults) string {
	if f == nil {
		return "no faults"
	}
	return fmt.Sprintf("%d crash(es), %d link window(s), %d partition(s), %d drop window(s), %d data-drop window(s), %d stall(s), %d subscriber crash(es)",
		len(f.Crashes), len(f.Links), len(f.Partitions), len(f.Drops), len(f.DataDrops), len(f.Stalls), len(f.SubCrashes))
}
