package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/trace"
)

// runScenario builds and runs a config, failing the test on error.
func runScenario(t *testing.T, cfg Config) *Result {
	t.Helper()
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func fig7Config() Config {
	return Config{
		SimNodes:     256,
		StagingNodes: 13,
		Sizes:        DefaultSizes(13),
		Steps:        20,
		CrackStep:    -1,
		Seed:         42,
	}
}

func fig8Config() Config {
	return Config{
		SimNodes:     512,
		StagingNodes: 24,
		Specs:        SpecsWithBondsModel(smartpointer.ModelParallel),
		Sizes:        DefaultSizes(24),
		Steps:        20,
		CrackStep:    -1,
		Seed:         42,
	}
}

func fig9Config() Config {
	return Config{
		SimNodes:     1024,
		StagingNodes: 24,
		Specs:        SpecsWithBondsModel(smartpointer.ModelParallel),
		Sizes:        DefaultSizes(24),
		Steps:        60,
		CrackStep:    -1,
		Seed:         42,
		Policy:       PolicyConfig{OfflinePatience: 10},
	}
}

func hasAction(res *Result, kind, target string) bool {
	for _, a := range res.Actions {
		if a.Kind == kind && a.Target == target {
			return true
		}
	}
	return false
}

func TestFig7StealFromHelperFixesBonds(t *testing.T) {
	res := runScenario(t, fig7Config())
	if res.Emitted != 20 || res.Exits != 20 || res.Dropped != 0 {
		t.Fatalf("emitted=%d exits=%d dropped=%d", res.Emitted, res.Exits, res.Dropped)
	}
	// The paper's Fig. 7 management sequence: decrease the
	// over-provisioned Helper, increase the bottleneck Bonds.
	if !hasAction(res, "decrease", "helper") {
		t.Fatalf("no helper decrease in %v", res.Actions)
	}
	if !hasAction(res, "increase", "bonds") {
		t.Fatalf("no bonds increase in %v", res.Actions)
	}
	if hasAction(res, "offline", "bonds") {
		t.Fatal("bonds must stay online at 256 nodes")
	}
	// Latency shape: climbs above the service floor, then settles back.
	lat := res.Recorder.Series("latency.bonds").Values()
	if len(lat) < 10 {
		t.Fatalf("too few latency samples: %d", len(lat))
	}
	floor := lat[0]
	peak := floor
	for _, v := range lat {
		if v > peak {
			peak = v
		}
	}
	if peak < floor*1.2 {
		t.Fatalf("no pre-action latency climb: floor %.1f peak %.1f", floor, peak)
	}
	tail := lat[len(lat)-3:]
	for _, v := range tail {
		if v > floor*1.05 {
			t.Fatalf("latency did not settle: tail %v vs floor %.1f", tail, floor)
		}
	}
	// All four containers online with the traded sizes.
	if res.States["helper"] != "online" || res.States["bonds"] != "online" {
		t.Fatalf("states %v", res.States)
	}
	if res.FinalSizes["bonds"] <= 2 || res.FinalSizes["helper"] >= 6 {
		t.Fatalf("sizes %v: expected bonds to grow at helper's expense", res.FinalSizes)
	}
}

func TestFig8InsufficientButNoOverflow(t *testing.T) {
	res := runScenario(t, fig8Config())
	if res.Emitted != 20 {
		t.Fatalf("emitted %d", res.Emitted)
	}
	// Management happens (spares + stealing), but nothing goes offline:
	// the run completes before any queue overflow.
	if !hasAction(res, "increase", "bonds") {
		t.Fatalf("no bonds increase in %v", res.Actions)
	}
	for name, st := range res.States {
		if st != "online" {
			t.Fatalf("container %s went offline; states %v", name, res.States)
		}
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d steps", res.Dropped)
	}
	// Bonds grew substantially but remains short of fully sustaining the
	// 15 s cadence (insufficient resources).
	if res.FinalSizes["bonds"] < 10 {
		t.Fatalf("bonds only reached %d nodes", res.FinalSizes["bonds"])
	}
	qs := res.Recorder.Series("queue.bonds").Values()
	maxQ := 0.0
	for _, q := range qs {
		if q > maxQ {
			maxQ = q
		}
	}
	if maxQ == 0 {
		t.Fatal("no backlog at all: scenario is not stressed")
	}
	if maxQ >= 10 {
		t.Fatalf("queue reached %v; should stay below the offline threshold", maxQ)
	}
}

func TestFig9OfflineCascadeWithProvenance(t *testing.T) {
	res := runScenario(t, fig9Config())
	// The runtime recognizes the overflow risk and moves Bonds and CSym
	// offline; inactive CNA is untouched (as in the paper).
	if res.States["bonds"] != "offline" || res.States["csym"] != "offline" {
		t.Fatalf("states %v", res.States)
	}
	if res.States["helper"] != "online" || res.States["cna"] != "online" {
		t.Fatalf("states %v", res.States)
	}
	// Spares were used first: a bonds increase precedes the offline.
	var incAt, offAt sim.Time = -1, -1
	for _, a := range res.Actions {
		if a.Kind == "increase" && a.Target == "bonds" && incAt < 0 {
			incAt = a.T
		}
		if a.Kind == "offline" && a.Target == "bonds" {
			offAt = a.T
		}
	}
	if incAt < 0 || offAt < 0 || incAt >= offAt {
		t.Fatalf("expected increase-then-offline, got %v", res.Actions)
	}
	// Upstream switched to disk with full pending-analysis provenance.
	prov := res.Provenance["helper"]
	for _, want := range []string{"bonds", "csym", "cna"} {
		if !strings.Contains(prov, want) {
			t.Fatalf("provenance %q missing %s", prov, want)
		}
	}
	if res.Dropped == 0 {
		t.Fatal("offline should have dropped queued steps")
	}
	// Offline returns the nodes to the spare pool.
	if res.Spare == 0 {
		t.Fatal("no nodes returned to spare pool")
	}
}

func TestFig9ProvenanceOnDisk(t *testing.T) {
	cfg := fig9Config()
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	sink := rt.Container("helper").DiskSink()
	if sink == nil {
		t.Fatal("helper never wrote to disk")
	}
	rd, err := sink.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rd.Steps() == 0 {
		t.Fatal("no offline steps on disk")
	}
	pg, err := rd.ReadStep(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pg.Attrs[AttrProvenance], "bonds") {
		t.Fatalf("disk step lacks provenance: %v", pg.Attrs)
	}
	// Birth stamps survive to disk too.
	if pg.Attrs[AttrBirth] == "" {
		t.Fatal("birth attribute lost")
	}
}

func TestFig10EndToEndDropsAfterOffline(t *testing.T) {
	res := runScenario(t, fig9Config())
	e2e := res.Recorder.Series("e2e")
	if e2e.Len() < 5 {
		t.Fatalf("too few e2e samples: %d", e2e.Len())
	}
	var offAt sim.Time = -1
	for _, a := range res.Actions {
		if a.Kind == "offline" && a.Target == "bonds" {
			offAt = a.T
		}
	}
	if offAt < 0 {
		t.Fatal("no offline action")
	}
	var before, after []float64
	for _, pt := range e2e.Points {
		if pt.T <= offAt {
			before = append(before, pt.V)
		} else {
			after = append(after, pt.V)
		}
	}
	if len(before) < 1 || len(after) < 3 {
		t.Fatalf("before=%d after=%d samples", len(before), len(after))
	}
	// Sharp decrease: the steady state after pruning is at least an
	// order of magnitude below the last pre-offline latency.
	last := after[len(after)-1]
	peak := before[len(before)-1]
	if last > peak/10 {
		t.Fatalf("no sharp drop: pre-offline %.1fs, steady state %.1fs", peak, last)
	}
	// And pre-offline latency was rising (queueing).
	if len(before) >= 2 && before[len(before)-1] <= before[0] {
		t.Fatalf("pre-offline e2e not rising: %v", before)
	}
}

func TestUnmanagedBaselineBlocksApplication(t *testing.T) {
	// Ablation: with management disabled, the Fig. 9 workload blocks the
	// simulation's writer far longer (the cost the containers avoid).
	managed := runScenario(t, fig9Config())
	cfg := fig9Config()
	cfg.Policy.DisableManagement = true
	unmanaged := runScenario(t, cfg)
	if unmanaged.WriterBlocked <= managed.WriterBlocked {
		t.Fatalf("unmanaged blocking %v should exceed managed %v",
			unmanaged.WriterBlocked, managed.WriterBlocked)
	}
	if unmanaged.Exits >= managed.Exits {
		t.Fatalf("managed run should let more steps exit: %d vs %d",
			managed.Exits, unmanaged.Exits)
	}
	if len(unmanaged.Actions) != 0 {
		t.Fatalf("unmanaged run took actions: %v", unmanaged.Actions)
	}
}

func TestCrackBranchActivatesCNA(t *testing.T) {
	cfg := fig7Config()
	cfg.CrackStep = 5
	cfg.Specs = DefaultSpecs()
	// Make CSym hand over on crack (the paper's dynamic branch).
	for i := range cfg.Specs {
		if cfg.Specs[i].Name == "csym" {
			cfg.Specs[i].DeactivateOnCrack = true
		}
	}
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !hasAction(res, "activate", "cna") {
		t.Fatalf("CNA never activated: %v", res.Actions)
	}
	if !hasAction(res, "activate", "csym") {
		t.Fatalf("CSym never deactivated: %v", res.Actions)
	}
	if rt.Container("cna").StepsProcessed() == 0 {
		t.Fatal("CNA processed nothing after activation")
	}
	// CSym stops consuming after the handover.
	if rt.Container("cna").Active() != true {
		t.Fatal("cna should be active")
	}
	if rt.Container("csym").Active() {
		t.Fatal("csym should be inactive after handover")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runScenario(t, fig7Config())
	b := runScenario(t, fig7Config())
	av, bv := a.Recorder.Series("latency.bonds").Values(), b.Recorder.Series("latency.bonds").Values()
	if len(av) != len(bv) {
		t.Fatalf("sample counts differ: %d vs %d", len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, av[i], bv[i])
		}
	}
	if len(a.Actions) != len(b.Actions) {
		t.Fatal("action counts differ")
	}
	// Different seed shifts the aprun costs (and hence some timings).
	cfg := fig7Config()
	cfg.Seed = 7
	c := runScenario(t, cfg)
	if len(c.Actions) == 0 {
		t.Fatal("reseeded run took no actions")
	}
}

func TestBuildRejectsBadConfigs(t *testing.T) {
	cfg := fig7Config()
	cfg.Sizes = map[string]int{"helper": 20, "bonds": 20, "csym": 1, "cna": 1}
	if _, err := Build(cfg); err == nil {
		t.Fatal("oversized containers should fail")
	}
	cfg = fig7Config()
	cfg.Specs = []ComponentSpec{{
		Name:  "bad",
		Kind:  smartpointer.KindHelper,
		Model: smartpointer.ModelRR, // Helper does not support RR
		Cost:  smartpointer.DefaultCostModels()[smartpointer.KindHelper],
	}}
	if _, err := Build(cfg); err == nil {
		t.Fatal("unsupported compute model should fail")
	}
}

func TestPolicyAblationNoStealing(t *testing.T) {
	cfg := fig7Config() // no spares: without stealing, nothing can help
	cfg.Policy.DisableStealing = true
	cfg.Policy.DisableOffline = true
	res := runScenario(t, cfg)
	if hasAction(res, "decrease", "helper") {
		t.Fatal("stealing disabled but helper was decreased")
	}
	if res.FinalSizes["bonds"] != 2 {
		t.Fatalf("bonds resized to %d without resources", res.FinalSizes["bonds"])
	}
	// The bottleneck persists: final latencies stay elevated.
	lat := res.Recorder.Series("latency.bonds").Values()
	if len(lat) == 0 || lat[len(lat)-1] <= lat[0] {
		t.Fatalf("expected unresolved latency growth, got %v", lat)
	}
}

func TestFrameCodec(t *testing.T) {
	pgAttrs := map[string]string{
		AttrAtoms: "123456",
		AttrCrack: "true",
		AttrBirth: "15000000000",
	}
	pg := &testPG{attrs: pgAttrs}
	fi, err := DecodeFrame(pg.toBP())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Atoms != 123456 || !fi.Crack || fi.Birth != 15*sim.Second {
		t.Fatalf("decoded %+v", fi)
	}
	pg.attrs[AttrAtoms] = "nope"
	if _, err := DecodeFrame(pg.toBP()); err == nil {
		t.Fatal("bad atoms attr should fail")
	}
	pg.attrs[AttrAtoms] = "1"
	pg.attrs[AttrBirth] = "xyz"
	if _, err := DecodeFrame(pg.toBP()); err == nil {
		t.Fatal("bad birth attr should fail")
	}
}

func TestTransactionalTradeCommit(t *testing.T) {
	cfg := fig7Config()
	cfg.Policy.TransactionalTrades = true
	res := runScenario(t, cfg)
	// The trade still happens (committed transaction), same end state.
	if !hasAction(res, "decrease", "helper") || !hasAction(res, "increase", "bonds") {
		t.Fatalf("trade missing: %v", res.Actions)
	}
	if hasAction(res, "trade-abort", "bonds") {
		t.Fatal("healthy trade aborted")
	}
	if res.FinalSizes["bonds"] <= 2 {
		t.Fatalf("bonds not grown: %v", res.FinalSizes)
	}
}

func TestTransactionalTradeRollback(t *testing.T) {
	cfg := fig7Config()
	cfg.Policy.TransactionalTrades = true
	cfg.Policy.InjectTradeFailures = 1
	res := runScenario(t, cfg)
	// First trade aborts and rolls back; a later tick retries and
	// succeeds.
	if !hasAction(res, "trade-abort", "bonds") {
		t.Fatalf("no trade abort recorded: %v", res.Actions)
	}
	// Rollback means an increase back to helper appears.
	rolledBack := false
	for _, a := range res.Actions {
		if a.Kind == "increase" && a.Target == "helper" {
			rolledBack = true
		}
	}
	if !rolledBack {
		t.Fatalf("no rollback increase to helper: %v", res.Actions)
	}
	// Node conservation: containers + spare == staging total.
	total := res.Spare
	for _, n := range res.FinalSizes {
		total += n
	}
	if total != cfg.StagingNodes {
		t.Fatalf("node leak: %d != %d", total, cfg.StagingNodes)
	}
	// The retry eventually fixes bonds.
	if res.FinalSizes["bonds"] <= 2 {
		t.Fatalf("retry never happened: %v", res.FinalSizes)
	}
}

// Property: across random policy knobs and scales, staging nodes are
// conserved — every node is in exactly one container or the spare pool.
func TestNodeConservationProperty(t *testing.T) {
	cases := []Config{fig7Config(), fig8Config(), fig9Config()}
	for seed := int64(1); seed <= 4; seed++ {
		for i, base := range cases {
			cfg := base
			cfg.Seed = seed
			cfg.Steps = 15
			if i == 2 {
				cfg.Policy.OfflinePatience = 2 // force the offline path
			}
			res := runScenario(t, cfg)
			total := res.Spare
			for _, n := range res.FinalSizes {
				total += n
			}
			if total != cfg.StagingNodes {
				t.Fatalf("case %d seed %d: %d nodes accounted, want %d (sizes %v spare %d)",
					i, seed, total, cfg.StagingNodes, res.FinalSizes, res.Spare)
			}
		}
	}
}

func TestCheckpointContainerRelaxedSLA(t *testing.T) {
	cfg := fig7Config()
	cfg.StagingNodes = 15 // leave room for the checkpoint container
	cfg.CheckpointEvery = 4
	cfg.CheckpointNodes = 2
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := rt.Container("checkpoint")
	if ckpt == nil {
		t.Fatal("no checkpoint container")
	}
	// 20 steps, every 4th checkpointed -> 5 checkpoints aggregated.
	if got := ckpt.StepsProcessed(); got != 5 {
		t.Fatalf("checkpoints processed %d, want 5", got)
	}
	// Checkpoint output is on stable storage.
	if got := diskSteps(t, ckpt); got != 5 {
		t.Fatalf("checkpoint disk steps %d, want 5", got)
	}
	// The relaxed SLA: each flush completes within the checkpoint
	// interval, and the checkpoint stream never drew management actions.
	flush := res.Recorder.Series("ckpt.flush")
	if flush.Len() != 5 {
		t.Fatalf("flush samples %d", flush.Len())
	}
	period := rt.Config().OutputPeriod
	interval := (4 * period).Seconds()
	for _, pt := range flush.Points {
		if pt.V > interval {
			t.Fatalf("flush took %.1fs, beyond the %gs interval", pt.V, interval)
		}
	}
	for _, a := range res.Actions {
		if a.Target == "checkpoint" {
			t.Fatalf("checkpoint container drew management action %v", a)
		}
	}
	// The main pipeline's management is unaffected.
	if !hasAction(res, "increase", "bonds") {
		t.Fatalf("bonds management lost: %v", res.Actions)
	}
	// The e2e series must not include checkpoint flushes.
	if res.Exits != 20 {
		t.Fatalf("exits %d, want 20 analytics steps", res.Exits)
	}
	// SLA relaxation is visible in the container's own accounting.
	if ckpt.SLAPeriod() != 4*period {
		t.Fatalf("SLA period %v", ckpt.SLAPeriod())
	}
	if rt.Container("bonds").SLAPeriod() != period {
		t.Fatal("bonds SLA should be one period")
	}
}

// Property: the managed pipeline survives arbitrary configurations —
// random scales, staging widths, sizings, policies, crack steps — without
// errors, leaking nodes, or losing accounting.
func TestRandomConfigTortureProperty(t *testing.T) {
	f := func(seed int64, simRaw, stagingRaw, stepsRaw, crackRaw, knobs uint8) bool {
		simNodes := 64 * (int(simRaw%8) + 1) // 64..512
		staging := int(stagingRaw%20) + 9    // 9..28
		steps := int(stepsRaw%15) + 5        // 5..19
		cfg := Config{
			SimNodes:     simNodes,
			StagingNodes: staging,
			Sizes: map[string]int{
				"helper": 4, "bonds": 2, "csym": 1, "cna": 1,
			},
			Steps:     steps,
			CrackStep: -1,
			Seed:      seed,
		}
		if crackRaw%3 == 0 {
			cfg.CrackStep = int64(crackRaw % uint8(steps))
		}
		if knobs&1 != 0 {
			cfg.Specs = SpecsWithBondsModel(smartpointer.ModelParallel)
		}
		if knobs&2 != 0 {
			cfg.Policy.TransactionalTrades = true
		}
		if knobs&4 != 0 {
			cfg.ShardStandbys = 1
		}
		if knobs&8 != 0 {
			cfg.Policy.DisableStealing = true
		}
		if knobs&16 != 0 && staging >= 10 {
			cfg.CheckpointEvery = 4
		}
		rt, err := Build(cfg)
		if err != nil {
			return false
		}
		res, err := rt.Run()
		if err != nil {
			return false
		}
		// Node conservation.
		total := res.Spare
		for _, n := range res.FinalSizes {
			total += n
		}
		if total != staging {
			return false
		}
		// Step accounting: exits + dropped + still-in-flight never
		// exceeds what was emitted.
		if res.Exits+int64(res.Dropped) > int64(res.Emitted) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60,
		Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestStepTrace(t *testing.T) {
	cfg := fig7Config()
	cfg.Steps = 6
	cfg.Trace = &trace.Config{}
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Stage completions for a step must be chronologically ordered along
	// the pipeline: each stage's step-0 compute span ends before the next
	// stage's does.
	done := map[string]sim.Time{}
	for _, r := range rt.Tracer().Records() {
		if r.Cat == "core" && r.Name == "compute" && r.Step == 0 {
			done[r.Container] = max(done[r.Container], r.End)
		}
	}
	for _, name := range []string{"helper", "bonds", "csym"} {
		if done[name] == 0 {
			t.Fatalf("no step-0 compute span for %s: %v", name, done)
		}
	}
	if !(done["helper"] < done["bonds"] && done["bonds"] < done["csym"]) {
		t.Fatalf("stage order broken: %v", done)
	}
}

func TestProducerFinishedFlag(t *testing.T) {
	res := runScenario(t, fig7Config())
	if !res.ProducerFinished {
		t.Fatal("healthy run should finish the producer")
	}
	// An unmanaged overload chokes the producer before the horizon.
	cfg := fig9Config()
	cfg.Steps = 60
	cfg.Policy.DisableManagement = true
	cfg.DrainTime = sim.Second
	choked := runScenario(t, cfg)
	if choked.ProducerFinished && choked.Emitted == 60 {
		t.Fatalf("unmanaged overload should choke the producer (emitted %d)", choked.Emitted)
	}
}

func TestShutdownLeavesNoBlockedProcs(t *testing.T) {
	rt, err := Build(fig7Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if blocked := rt.Engine().Blocked(); len(blocked) != 0 {
		t.Fatalf("leaked parked processes: %v", blocked)
	}
}
