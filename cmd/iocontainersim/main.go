// Command iocontainersim runs one managed I/O-pipeline scenario and
// prints its timeline: per-container latencies, queue depths, management
// actions, and the run summary.
//
// Usage:
//
//	iocontainersim [-sim 256] [-staging 13] [-steps 20] [-period 15]
//	               [-crack -1] [-seed 42] [-parallel-bonds]
//	               [-no-management] [-no-offline] [-no-steal]
//	               [-crash-node -1] [-crash-at 60] [-no-self-heal]
//	               [-trace out.json] [-flight flight.txt]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/datatap"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/trace"
)

// showCharts toggles ASCII chart output (-chart).
var showCharts bool

// tracePath / flightPath hold the -trace and -flight output files.
var tracePath, flightPath string

func main() {
	simNodes := flag.Int("sim", 256, "simulation partition size (nodes)")
	staging := flag.Int("staging", 13, "staging partition size (nodes)")
	steps := flag.Int("steps", 20, "output steps to run")
	period := flag.Float64("period", 15, "output period (virtual seconds)")
	crack := flag.Int64("crack", -1, "output step at which crack formation appears (-1: never)")
	seed := flag.Int64("seed", 42, "simulation seed")
	parallelBonds := flag.Bool("parallel-bonds", false, "run Bonds under the MPI-style parallel model")
	noMgmt := flag.Bool("no-management", false, "disable the global manager's policy (baseline)")
	noOffline := flag.Bool("no-offline", false, "never take containers offline")
	noSteal := flag.Bool("no-steal", false, "never steal nodes from other containers")
	configPath := flag.String("config", "", "JSON scenario file (overrides the other flags)")
	chart := flag.Bool("chart", false, "render ASCII charts of the key series")
	shards := flag.Int("shards", 0, "shard the control plane: per-shard managers under a meta-manager (0/1 = one global manager)")
	shardStandbys := flag.Int("shard-standbys", 0, "standby managers per shard, 0 or 1 (with one shard: a standby global manager)")
	killGM := flag.Float64("kill-gm", 0, "kill the primary global manager at this virtual second (0 = never)")
	crashNode := flag.Int("crash-node", -1, "machine node to fail-stop (-1 = none; staging IDs start at -sim)")
	crashAt := flag.Float64("crash-at", 60, "virtual second at which -crash-node dies")
	noHeal := flag.Bool("no-self-heal", false, "disable the replica-restart protocol")
	traceFile := flag.String("trace", "", "export a Chrome trace_event JSON of the run to this file")
	flightFile := flag.String("flight", "", "on SLA violation, queue overflow, or crash, dump the flight recorder to this file")
	flag.Parse()
	showCharts = *chart
	tracePath = *traceFile
	flightPath = *flightFile

	if *configPath != "" {
		cfg, err := scenario.LoadFile(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iocontainersim:", err)
			os.Exit(1)
		}
		runAndReport(cfg)
		return
	}

	// On sharded runs the first staging nodes host the control plane
	// (meta + per-shard managers and standbys); size the containers for
	// the region that remains.
	sizeNodes := *staging - core.ControlNodes(*shards, *shardStandbys)
	cfg := core.Config{
		SimNodes:      *simNodes,
		StagingNodes:  *staging,
		Sizes:         core.DefaultSizes(sizeNodes),
		Steps:         *steps,
		OutputPeriod:  sim.Time(*period * float64(sim.Second)),
		CrackStep:     *crack,
		Seed:          *seed,
		Shards:        *shards,
		ShardStandbys: *shardStandbys,
		Policy: core.PolicyConfig{
			DisableManagement:  *noMgmt,
			DisableOffline:     *noOffline,
			DisableStealing:    *noSteal,
			KillGMAt:           sim.Time(*killGM * float64(sim.Second)),
			DisableSelfHealing: *noHeal,
		},
	}
	if *parallelBonds {
		cfg.Specs = core.SpecsWithBondsModel(smartpointer.ModelParallel)
	}
	if *crashNode >= 0 {
		cfg.Faults = &fault.Config{
			Crashes: []fault.Crash{{
				Node: *crashNode,
				At:   sim.Time(*crashAt * float64(sim.Second)),
			}},
		}
	}
	runAndReport(cfg)
}

func runAndReport(cfg core.Config) {
	if (tracePath != "" || flightPath != "") && cfg.Trace == nil {
		cfg.Trace = &trace.Config{}
	}
	rt, err := core.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iocontainersim:", err)
		os.Exit(1)
	}
	if flightPath != "" {
		rec := rt.Tracer()
		rec.OnTrigger(func(reason string) {
			if err := dumpFlight(flightPath, reason, rec.Records()); err != nil {
				fmt.Fprintln(os.Stderr, "iocontainersim: flight dump:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "iocontainersim: flight recorder dumped to %s (trigger: %s)\n",
				flightPath, reason)
		})
	}
	res, err := rt.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iocontainersim:", err)
		os.Exit(1)
	}
	if tracePath != "" {
		if err := exportChrome(tracePath, rt.Tracer().Records()); err != nil {
			fmt.Fprintln(os.Stderr, "iocontainersim: trace export:", err)
			os.Exit(1)
		}
	}
	eff := rt.Config()

	fmt.Printf("scenario: %d simulation + %d staging nodes, %d steps every %s (scale: %d atoms, %.1f MB/step)\n",
		eff.SimNodes, eff.StagingNodes, eff.Steps, eff.OutputPeriod, eff.Scale.AtomCount, eff.Scale.MB())
	fmt.Println()

	fmt.Println("management actions:")
	if len(res.Actions) == 0 {
		fmt.Println("  (none)")
	}
	for _, a := range res.Actions {
		fmt.Printf("  %10s  %-10s %-8s n=%-3d %s\n", a.T, a.Kind, a.Target, a.N, a.Detail)
	}
	fmt.Println()

	fmt.Println("per-container outcome:")
	names := make([]string, 0, len(eff.Specs)+1)
	for _, spec := range eff.Specs {
		names = append(names, spec.Name)
	}
	if eff.CheckpointEvery > 0 {
		names = append(names, "checkpoint")
	}
	for _, name := range names {
		c := rt.Container(name)
		if c == nil {
			continue
		}
		lat := res.Recorder.Series("latency." + name)
		state := res.States[name]
		fmt.Printf("  %-7s %-8s %2d nodes  %3d steps processed", name, state, res.FinalSizes[name], c.StepsProcessed())
		if lat.Len() > 0 {
			fmt.Printf("  latency last/mean %.1fs/%.1fs", lat.Last().V, lat.Mean())
		}
		if prov := res.Provenance[name]; prov != "" {
			fmt.Printf("  provenance=%q", prov)
		}
		fmt.Println()
	}
	fmt.Println()

	e2e := res.Recorder.Series("e2e")
	fmt.Printf("summary: emitted=%d exited=%d dropped=%d spare=%d writer-blocked=%s e2e-samples=%d\n",
		res.Emitted, res.Exits, res.Dropped, res.Spare, res.WriterBlocked, e2e.Len())
	if len(res.DownNodes) > 0 || res.FaultStats != (fault.Stats{}) {
		fmt.Printf("faults: crashed-nodes=%v crashes=%d ctl-dropped=%d sends-failed=%d suspects=%v\n",
			res.DownNodes, res.FaultStats.CrashesFired, res.FaultStats.CtlDropped,
			res.FaultStats.SendsFailed, res.Suspects)
	}
	if e2e.Len() > 0 {
		fmt.Printf("end-to-end latency: first=%.1fs last=%.1fs\n", e2e.Points[0].V, e2e.Last().V)
	}

	printShards(res)
	printDelivery(res)
	printSubscribers(res)

	if trig, ok := rt.Tracer().Triggered(); ok && flightPath != "" {
		fmt.Printf("flight recorder: triggered (%s), dump in %s\n", trig, flightPath)
	}

	if showCharts {
		for _, name := range names {
			s := res.Recorder.Series("latency." + name)
			if s.Len() < 2 {
				continue
			}
			fmt.Printf("\nper-step latency, %s:\n", name)
			fmt.Print(metrics.Chart(s, metrics.ChartOptions{
				YLabel: "latency (s)", Markers: res.Recorder.Markers}))
		}
		if e2e.Len() >= 2 {
			fmt.Println("\nend-to-end latency:")
			fmt.Print(metrics.Chart(e2e, metrics.ChartOptions{
				YLabel: "end-to-end latency (s)", Markers: res.Recorder.Markers}))
		}
	}
}

// printShards renders the per-shard control-plane table on sharded runs
// (legacy single-manager runs have no shard summaries and print nothing).
func printShards(res *core.Result) {
	if len(res.Shards) == 0 {
		return
	}
	fmt.Println("control-plane shards:")
	fmt.Println("  shard  containers  spare  epoch  stolen-in  stolen-out  suspects  actions")
	for _, s := range res.Shards {
		fmt.Printf("  %5d  %10d  %5d  %5d  %9d  %10d  %8d  %7d\n",
			s.Shard, s.Containers, s.Spare, s.Epoch, s.StolenIn, s.StolenOut, s.Suspects, s.Actions)
	}
	fmt.Println()
}

// printDelivery summarizes each at-least-once channel's step ledger and
// any knowingly-lost steps. Best-effort channels keep no ledger and are
// skipped; a fully best-effort run prints nothing here.
func printDelivery(res *core.Result) {
	printed := false
	for _, d := range res.Delivery {
		if d.Mode != datatap.DeliveryAtLeastOnce {
			continue
		}
		if !printed {
			fmt.Println("delivery (at-least-once channels):")
			printed = true
		}
		fmt.Printf("  %-8s written=%d acked=%d redelivered=%d spilled=%d drained=%d crash-lost=%d retained=%d unaccounted=%d\n",
			d.Channel, d.StepsWritten, d.StepsAcked, d.StepsRedelivered,
			d.StepsSpilled, d.StepsDrained, d.StepsCrashLost, d.Retained, d.Unaccounted())
	}
	if len(res.DeliveryLost) > 0 {
		fmt.Printf("delivery losses (%d):\n", len(res.DeliveryLost))
		for _, l := range res.DeliveryLost {
			fmt.Printf("  %-8s step=%d reason=%s\n", l.Container, l.Step, l.Reason)
		}
	}
}

// printSubscribers summarizes the streaming fan-out fleet on runs that
// attach one (nothing is printed otherwise): the hub-wide counters, the
// fleet's worst lag, and the conservation balance.
func printSubscribers(res *core.Result) {
	if len(res.Subscribers) == 0 {
		return
	}
	hs := res.SubHub
	var crashed int
	var maxLag, unaccounted int64
	for _, s := range res.Subscribers {
		if s.Crashed {
			crashed++
		}
		if s.MaxLag > maxLag {
			maxLag = s.MaxLag
		}
		unaccounted += s.Unaccounted()
	}
	fmt.Printf("subscribers (%d, %d crashed): published=%d delivered=%d dropped=%d spilled=%d spill-reads=%d resumes=%d replays=%d\n",
		len(res.Subscribers), crashed, hs.Published, hs.Delivered, hs.Dropped,
		hs.Spilled, hs.SpillReads, hs.Resumes, hs.Replays)
	fmt.Printf("  max-lag=%d unaccounted=%d writer-stalled=%s publish-stall=%s\n",
		maxLag, unaccounted, res.WriterStalled, hs.PublishStall)
}

// exportChrome writes the recorder contents as Chrome trace_event JSON.
func exportChrome(path string, recs []trace.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpFlight writes a flight-recorder snapshot: a header naming the trigger,
// then the plain-text timeline of everything still in the ring.
func dumpFlight(path, reason string, recs []trace.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "# flight recorder dump  trigger=%s  records=%d\n", reason, len(recs))
	if err := trace.WriteText(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
