// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|table1|table2|fig3..fig10] [-seed N] [-csv]
//
// Each experiment prints its data series as aligned tables (or CSV) plus
// notes comparing the measured shape to what the paper reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table2, fig3..fig10, extra-*), 'all', or 'extras'")
	seed := flag.Int64("seed", 42, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	traceDir := flag.String("trace-dir", "", "record causal traces; write one Chrome trace JSON per run into this directory")
	genShards := flag.String("gen-shards", "", "synthesize the 1,000-container sharded scenario, write it to this file, and exit")
	flag.Parse()

	if *genShards != "" {
		if err := writeShardsScenario(*genShards); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *genShards)
		return
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		experiments.EnableTracing(*traceDir)
	}

	if *list {
		for _, e := range experiments.AllWithExtras() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []experiments.Experiment
	switch {
	case *exp == "all":
		todo = experiments.All()
	case *exp == "extras":
		todo = experiments.Extras()
	default:
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	}

	for _, e := range todo {
		out, err := e.Run(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *csv {
			for _, sec := range out.Sections {
				fmt.Printf("# %s: %s\n", out.ID, sec.Name)
				fmt.Print(sec.Table.CSV())
			}
			continue
		}
		fmt.Println(out.String())
	}
}

// writeShardsScenario synthesizes the 1,000-container stress scenario the
// sharded control plane exists for: a linear chain of tiny custom stages,
// 100 shard managers (one standby each) under the meta-manager, one spare
// node per shard, and a policy quiet enough that the chaos smoke exercises
// manager crashes rather than SLA churn. The output is checked in as
// scenarios/shards-1k.json; regenerate with `experiments -gen-shards`.
func writeShardsScenario(path string) error {
	const (
		nStages   = 1000
		nShards   = 100
		nStandbys = 1
		nSpares   = 100 // one per shard after the round-robin split
	)
	f := &scenario.File{
		SimNodes: 256,
		// The control plane, one node per stage, spares.
		StagingNodes:    core.ControlNodes(nShards, nStandbys) + nStages + nSpares,
		OutputPeriodSec: 5,
		Steps:           2,
		CrackStep:       -1,
		Seed:            42,
		AtomsOverride:   100_000,
		// Ring seed 25 balances best over these names: the hottest shard
		// holds 16 of the 1,000 containers, so the sharded control sweep
		// stays well under 2x the 10-container single-manager sweep.
		Shards: &scenario.ShardsSpec{Count: nShards, Seed: 25, Standbys: nStandbys},
		Policy: scenario.Policy{
			DisableOffline:  true,
			DisableStealing: true,
			CallTimeoutSec:  5,
		},
	}
	for i := 0; i < nStages; i++ {
		f.Stages = append(f.Stages, scenario.Stage{
			Name:         fmt.Sprintf("s%03d", i),
			Kind:         "Custom",
			Model:        "Serial",
			Nodes:        1,
			OutputFactor: 1,
			SLAPeriods:   100, // a 1,000-deep chain is latency-bound by design
			Cost:         &scenario.Cost{BaseSec: 0.001, RefAtoms: 100_000},
		})
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
