package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/scenario"
)

// runner executes one workload's ops. run is the timed part of op i;
// check then audits that op's outcome outside the timed region and
// returns its deterministic work counts. A non-nil error from either
// makes the op count as failed.
type runner interface {
	run(i int, tr *tracer) error
	check() (counts, error)
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// setups is how many fresh processes time the set-up; setup_s is
	// their median.
	setups int
	// warmup is how many ops the set-up runs before the first timed op.
	warmup int
	// load reads and validates the workload's inputs and pre-generates
	// whatever its ops replay; it is the first part of the set-up.
	load func(root string, seed int64, st *setupTimes) (runner, error)
}

// setupTimes collects the per-layer times of the set-up's input loading.
type setupTimes struct {
	scenarioLoadMs float64
	chaosGenMs     float64 // per generated schedule
}

var workloads = []*workload{
	{name: "pipeline", setups: 5, warmup: 32, load: loadSim("scenarios/fig9.json")},
	{name: "fanout", setups: 3, warmup: 2, load: loadSim("scenarios/dashboards.json")},
	{name: "chaos", setups: 5, warmup: 48, load: loadChaos},
	{name: "iocheck", setups: 3, warmup: 1, load: loadIocheck},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix derives the i-th input seed from the workload seed (splitmix64), so
// every scenario seed and chaos seed of a run follows from --seed alone.
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative
}

// readScenario loads and validates one scenario file.
func readScenario(root, path string) (*scenario.File, error) {
	f, err := scenario.ReadFile(filepath.Join(root, path))
	if err != nil {
		return nil, err
	}
	if _, err := f.ToConfig(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// simRunner runs one scenario file per op with a fresh seed:
// scenario.File → ToConfig → core.Build → Runtime.Run.
type simRunner struct {
	file   *scenario.File
	seed   int64
	info   *chaos.RunInfo
	kernel *kernelCounter
	runNs  int64 // wall time of the last Runtime.Run
}

func loadSim(path string) func(root string, seed int64, st *setupTimes) (runner, error) {
	return func(root string, seed int64, st *setupTimes) (runner, error) {
		t0 := time.Now()
		f, err := readScenario(root, path)
		st.scenarioLoadMs = msSince(t0)
		if err != nil {
			return nil, err
		}
		return &simRunner{file: f, seed: seed}, nil
	}
}

func (r *simRunner) run(i int, tr *tracer) error {
	f := *r.file
	f.Seed = mix(r.seed, i)
	r.info = &chaos.RunInfo{File: &f}
	r.kernel = nil
	cfg, err := f.ToConfig()
	if err != nil {
		r.info.Err = err
		return err
	}
	h := tr.begin("core.build")
	rt, err := core.Build(cfg)
	tr.end(h)
	if err != nil {
		r.info.Err = err
		return err
	}
	r.info.RT, r.info.Cfg = rt, rt.Config()
	if k := tr.kernel(); k != nil {
		r.kernel = k
		rt.Engine().SetTracer(k)
	}
	h = tr.begin("core.run")
	t0 := time.Now()
	res, err := rt.Run()
	r.runNs = int64(time.Since(t0))
	tr.end(h)
	r.info.Res, r.info.Err = res, err
	return err
}

func (r *simRunner) lastRunMs() float64 { return float64(r.runNs) / 1e6 }

func (r *simRunner) check() (counts, error) {
	info := r.info
	var c counts
	if info.Err != nil {
		return c, info.Err
	}
	runtimeCounts(&c, info.RT, info.Res)
	if k := r.kernel; k != nil {
		c[cEvents], c[cWakes], c[cTimeouts] = k.events, k.wakes, k.timeouts
	}
	if !info.Res.ProducerFinished {
		return c, fmt.Errorf("seed %d: producer did not finish", info.File.Seed)
	}
	if v := chaos.CheckOracles(info, chaos.DefaultOracles()); len(v) > 0 {
		return c, fmt.Errorf("seed %d: %d oracle violation(s), first %s", info.File.Seed, len(v), v[0])
	}
	return c, nil
}

// runtimeCounts reads the work counts every layer of a finished run
// exposes through its public Stats and Result fields.
func runtimeCounts(c *counts, rt *core.Runtime, res *core.Result) {
	c[cRounds] = int64(len(res.Rounds))
	c[cActions] = int64(len(res.Actions))
	c[cSuspects] = int64(len(res.Suspects))
	c[cExits] = res.Exits
	net := rt.Machine().Stats()
	c[cMsgs], c[cBytes] = net.Messages, net.Bytes
	for _, ctr := range rt.Containers() {
		_, sent := ctr.MonitoringTraffic()
		c[cMonitorSent] += sent
	}
	for _, ch := range rt.Channels() {
		s := ch.Stats()
		c[cStepsWritten] += s.StepsWritten
		c[cStepsPulled] += s.StepsPulled
		c[cMaxQueue] = max(c[cMaxQueue], int64(s.MaxQueue))
	}
	for _, d := range res.Delivery {
		c[cRedelivered] += d.StepsRedelivered
		c[cSpilled] += d.StepsSpilled
	}
	c[cSubDelivered] = res.SubHub.Delivered
	c[cSubSpilled] = res.SubHub.Spilled
	c[cSubSpillReads] = res.SubHub.SpillReads
	c[cCrashes] = int64(res.FaultStats.CrashesFired)
	c[cCtlDropped] = res.FaultStats.CtlDropped
	c[cTraceRecords] = int64(rt.Tracer().Len()) + rt.Tracer().Dropped()
	c[cTraceDropped] = rt.Tracer().Dropped()
	c[cVirtualNs] = int64(rt.Engine().Now())
}

// chaosScenarios are the fault-schedule bases the chaos ops rotate over:
// control-plane failover, the at-least-once data plane, and the sharded
// control plane.
var chaosScenarios = []string{
	"scenarios/chaos-failover.json",
	"scenarios/delivery.json",
	"scenarios/chaos-shards.json",
}

// chaosSeeds is how many chaos seeds per scenario the corpus holds: seeds
// 1 to 64, the range `make chaos` gates on. Seeds beyond it are search
// territory, not a fixed workload (see README.md).
const chaosSeeds = 64

type schedule struct {
	path   string
	base   *scenario.File
	seed   int64
	faults *scenario.Faults
}

// chaosRunner replays the pre-generated corpus, one schedule per op, in an
// order drawn from the workload seed: chaos.RunSchedule →
// chaos.CheckOracles(DefaultOracles).
type chaosRunner struct {
	pool []schedule
	cur  *schedule
	info *chaos.RunInfo
	viol []chaos.Violation
}

func loadChaos(root string, seed int64, st *setupTimes) (runner, error) {
	t0 := time.Now()
	bases := make([]*scenario.File, len(chaosScenarios))
	for i, path := range chaosScenarios {
		f, err := readScenario(root, path)
		if err != nil {
			return nil, err
		}
		bases[i] = f
	}
	st.scenarioLoadMs = msSince(t0)
	t0 = time.Now()
	order := rand.New(rand.NewSource(seed)).Perm(len(bases) * chaosSeeds)
	r := &chaosRunner{pool: make([]schedule, len(order))}
	for i, k := range order {
		j, s := k%len(bases), int64(1+k/len(bases))
		r.pool[i] = schedule{path: chaosScenarios[j], base: bases[j], seed: s,
			faults: chaos.Generate(s, bases[j], chaos.GenConfig{})}
	}
	st.chaosGenMs = msSince(t0) / float64(len(order))
	return r, nil
}

func (r *chaosRunner) run(i int, tr *tracer) error {
	r.cur = &r.pool[i%len(r.pool)]
	h := tr.begin("chaos.run")
	r.info = chaos.RunSchedule(r.cur.base, r.cur.faults)
	tr.end(h)
	h = tr.begin("chaos.oracles")
	r.viol = chaos.CheckOracles(r.info, chaos.DefaultOracles())
	tr.end(h)
	return nil
}

func (r *chaosRunner) check() (counts, error) {
	var c counts
	c[cFaults] = int64(numFaults(r.cur.faults))
	if r.info.RT != nil && r.info.Res != nil {
		runtimeCounts(&c, r.info.RT, r.info.Res)
	}
	if len(r.viol) > 0 {
		return c, fmt.Errorf("%s chaos seed %d: %d violation(s), first %s", r.cur.path, r.cur.seed, len(r.viol), r.viol[0])
	}
	return c, nil
}

func numFaults(f *scenario.Faults) int {
	if f == nil {
		return 0
	}
	return len(f.Crashes) + len(f.Links) + len(f.Partitions) + len(f.Drops) +
		len(f.DataDrops) + len(f.Stalls) + len(f.SubCrashes)
}

// iocheckRunner runs the whole static-analysis suite over the module per
// op: analysis.LoadModule(root) + analysis.Run(pkgs, analysis.Analyzers()).
type iocheckRunner struct {
	root  string
	want  map[string]int // unsuppressed findings per rule, from lint-baseline.json
	pkgs  []*analysis.Package
	diags []analysis.Diagnostic
	err   error
}

func loadIocheck(root string, _ int64, _ *setupTimes) (runner, error) {
	data, err := os.ReadFile(filepath.Join(root, "lint-baseline.json"))
	if err != nil {
		return nil, err
	}
	var base struct {
		Findings map[string]int `json:"findings"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("lint-baseline.json: %w", err)
	}
	return &iocheckRunner{root: root, want: base.Findings}, nil
}

func (r *iocheckRunner) run(_ int, tr *tracer) error {
	h := tr.begin("analysis.load")
	r.pkgs, r.err = analysis.LoadModule(r.root)
	tr.end(h)
	if r.err != nil {
		return r.err
	}
	h = tr.begin("analysis.rules")
	r.diags = analysis.Run(r.pkgs, analysis.Analyzers())
	tr.end(h)
	return nil
}

func (r *iocheckRunner) check() (counts, error) {
	var c counts
	if r.err != nil {
		return c, r.err
	}
	c[cPackages] = int64(len(r.pkgs))
	for _, p := range r.pkgs {
		c[cFiles] += int64(len(p.Files))
	}
	got := make(map[string]int)
	for _, d := range r.diags {
		if d.Suppressed {
			c[cSuppressed]++
		} else {
			c[cFindings]++
			got[d.Rule]++
		}
	}
	rules := make([]string, 0, len(got)+len(r.want))
	for rule := range got {
		rules = append(rules, rule)
	}
	for rule := range r.want {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	var diff []string
	for i, rule := range rules {
		if (i == 0 || rule != rules[i-1]) && got[rule] != r.want[rule] {
			diff = append(diff, fmt.Sprintf("%s %d (baseline %d)", rule, got[rule], r.want[rule]))
		}
	}
	if len(diff) > 0 {
		return c, fmt.Errorf("unsuppressed findings differ from lint-baseline.json: %v", diff)
	}
	return c, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
