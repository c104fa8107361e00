package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/smartpointer"
)

// Extras returns experiments beyond the paper's own tables and figures:
// sweeps over dimensions the paper discusses but does not plot.
func Extras() []Experiment {
	return []Experiment{
		{"extra-ratios", "Staging:simulation ratio sweep (§III-A)", ExtraRatios},
		{"extra-monitoring", "Monitoring perturbation vs. fidelity (§III-E)", ExtraMonitoring},
		{"extra-branch", "Dynamic pipeline branch timeline (§III-B1)", ExtraBranch},
		{"extra-failover", "Global-manager failover (§III-B)", ExtraFailover},
		{"extra-faults", "Crash injection and container self-healing (§III-B)", ExtraFaults},
	}
}

// AllWithExtras returns the paper artifacts followed by the extras.
func AllWithExtras() []Experiment {
	return append(All(), Extras()...)
}

// ExtraRatios sweeps the staging allotment for a fixed 512-node
// simulation: the paper reports production ratios of 1:512..1:2048 and
// the whole point of management is living inside them. The sweep shows
// the cost of a too-small staging area (application blocking, offlined
// analyses) and the diminishing returns of a large one.
func ExtraRatios(seed int64) (*Output, error) {
	tab := &metrics.Table{Header: []string{"staging nodes", "ratio", "bonds final", "offlined",
		"steps exited (analyzed or provenance-stamped)", "writer blocked (s)"}}
	for _, staging := range []int{10, 16, 24, 40} {
		sizes := map[string]int{"helper": 4, "bonds": 2, "csym": 2, "cna": 1}
		cfg := core.Config{
			SimNodes:     512,
			StagingNodes: staging,
			Specs:        core.SpecsWithBondsModel(smartpointer.ModelParallel),
			Sizes:        sizes,
			Steps:        30,
			CrackStep:    -1,
			Seed:         seed,
		}
		res, err := runScenario(cfg)
		if err != nil {
			return nil, err
		}
		offlined := 0
		for _, st := range res.States {
			if st == "offline" {
				offlined++
			}
		}
		tab.AddRow(staging, fmt.Sprintf("1:%d", 512/staging), res.FinalSizes["bonds"],
			offlined, res.Exits, secs(res.WriterBlocked))
	}
	return &Output{
		ID:       "extra-ratios",
		Title:    "Staging:simulation ratio sweep",
		Sections: []Section{{Name: "ratio sweep (512-node simulation)", Table: tab}},
		Notes: []string{
			"paper: typical staging:simulation ratios range 1:512 to 1:2048; management must deliver analytics inside those confines",
			"measured: below the workload's need the runtime prunes analyses to protect the simulation; above it, extra nodes sit spare",
		},
	}, nil
}

// ExtraMonitoring sweeps the monitoring probe configuration on the Fig. 7
// scenario: rate-limited and pre-aggregated monitoring sends far fewer
// events across the machine while the management outcome stays intact —
// the §III-E flexibility argument.
func ExtraMonitoring(seed int64) (*Output, error) {
	type knob struct {
		name  string
		every sim.Time
		aggN  int
	}
	knobs := []knob{
		{"every sample", 0, 0},
		{"max 1/30s", 30 * sim.Second, 0},
		{"aggregate x4", 0, 4},
	}
	tab := &metrics.Table{Header: []string{"monitoring", "samples captured", "events sent",
		"mgmt actions", "bonds final"}}
	for _, k := range knobs {
		cfg := core.Config{
			SimNodes:           256,
			StagingNodes:       13,
			Sizes:              core.DefaultSizes(13),
			Steps:              20,
			CrackStep:          -1,
			Seed:               seed,
			MonitorSampleEvery: k.every,
			MonitorAggregateN:  k.aggN,
		}
		rt, err := core.Build(cfg)
		if err != nil {
			return nil, err
		}
		res, err := rt.Run()
		if err != nil {
			return nil, err
		}
		var captured, sent int64
		for _, c := range rt.Containers() {
			cc, ss := c.MonitoringTraffic()
			captured += cc
			sent += ss
		}
		tab.AddRow(k.name, captured, sent, len(res.Actions), res.FinalSizes["bonds"])
	}
	return &Output{
		ID:       "extra-monitoring",
		Title:    "Monitoring perturbation vs. fidelity",
		Sections: []Section{{Name: "probe configuration sweep (Fig. 7 scenario)", Table: tab}},
		Notes: []string{
			"paper: monitoring flexibility (which metrics, how often, where processed) exists to minimize perturbation to applications",
			"measured: rate-limiting/aggregation cut cross-machine monitoring traffic while the bottleneck is still found and fixed",
		},
	}, nil
}

// ExtraBranch runs the crack scenario and reports the dynamic-branch
// timeline: CSym active pre-crack, CNA taking over after detection.
func ExtraBranch(seed int64) (*Output, error) {
	specs := core.DefaultSpecs()
	for i := range specs {
		if specs[i].Name == "csym" {
			specs[i].DeactivateOnCrack = true
		}
	}
	cfg := core.Config{
		SimNodes:     256,
		StagingNodes: 13,
		Specs:        specs,
		Sizes:        core.DefaultSizes(13),
		Steps:        20,
		CrackStep:    8,
		Seed:         seed,
	}
	rt, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	res, err := rt.Run()
	if err != nil {
		return nil, err
	}
	type ev struct {
		t    sim.Time
		what string
	}
	evs := []ev{{8 * rt.Config().OutputPeriod, "crack formation first present in output data"}}
	for _, a := range res.Actions {
		evs = append(evs, ev{a.T, fmt.Sprintf("%s %s %s", a.Kind, a.Target, a.Detail)})
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].t < evs[j-1].t; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	tab := &metrics.Table{Header: []string{"t (s)", "event"}}
	for _, e := range evs {
		tab.AddRow(fmt.Sprintf("%.1f", e.t.Seconds()), e.what)
	}
	counts := &metrics.Table{Header: []string{"container", "steps processed"}}
	for _, name := range []string{"csym", "cna"} {
		counts.AddRow(name, rt.Container(name).StepsProcessed())
	}
	return &Output{
		ID:    "extra-branch",
		Title: "Dynamic pipeline branch on crack detection",
		Sections: []Section{
			{Name: "timeline", Table: tab},
			{Name: "work split", Table: counts},
		},
		Notes: []string{
			"paper: if a break is detected the pipeline branches — the pre-break analysis stops and CNA starts reading the Bonds data",
			"measured: CSym handles the pre-crack steps, is deactivated on the CSym-observed break, and CNA (held in reserve) takes over",
		},
	}, nil
}

// ExtraFailover kills the primary global manager mid-run and reports the
// standby's takeover timeline — the §III-B single-point-of-failure story.
func ExtraFailover(seed int64) (*Output, error) {
	cfg := core.Config{
		SimNodes:      256,
		StagingNodes:  13,
		Sizes:         core.DefaultSizes(13),
		Steps:         20,
		CrackStep:     -1,
		Seed:          seed,
		ShardStandbys: 1,
		Policy:        core.PolicyConfig{KillGMAt: 40 * sim.Second},
	}
	res, err := runScenario(cfg)
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{Header: []string{"t (s)", "event"}}
	tab.AddRow("40.0", "primary global manager dies (injected)")
	for _, a := range res.Actions {
		tab.AddRow(fmt.Sprintf("%.1f", a.T.Seconds()),
			fmt.Sprintf("%s %s %s", a.Kind, a.Target, a.Detail))
	}
	sum := &metrics.Table{Header: []string{"metric", "value"}}
	sum.AddRow("steps emitted", res.Emitted)
	sum.AddRow("steps analyzed", res.Exits)
	sum.AddRow("bonds final size", res.FinalSizes["bonds"])
	return &Output{
		ID:    "extra-failover",
		Title: "Global-manager failover",
		Sections: []Section{
			{Name: "timeline", Table: tab},
			{Name: "summary", Table: sum},
		},
		Notes: []string{
			"paper: the global manager is a potential single point of failure; ZooKeeper-style methods can maintain resilience",
			"measured: the standby detects the silent primary via missed heartbeats, rehomes every container's overlay, rebuilds the spare pool from authoritative ownership, and completes the management the primary never performed",
		},
	}, nil
}
