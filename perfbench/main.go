// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each invocation runs one workload as a closed loop — one
// caller, the next op starting when the previous one returns — for a fixed
// wall time, checks every op's output outside the timed region, and
// prints one JSON result as the last line of standard output.
//
//	perfbench --workload pipeline --seed 7 --seconds 10 --trace 0 --root .
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the run is split: an untraced half, then a
// traced half that records spans around every call into a layer and
// counts kernel events, and the result holds the per-layer metrics,
// including the tracing overhead (the traced half against the untraced
// one). The spans are written to --out when the run ends.
//
// The measured process runs with GOMAXPROCS 1. The simulation runs one
// goroutine at a time; with more Ps, its goroutine hand-offs wake other
// CPUs, and on a shared host that measures the host's scheduler rather
// than the program (README.md, Noise).
//
// perfbench/run.py builds this command inside the checkout and runs it;
// perfbench/README.md describes the workloads and every metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a set-up child: a fresh process that only times the
// workload's set-up and reports it, so setup_s is the median of several
// cold set-ups rather than one.
const childEnv = "PERFBENCH_SETUP_CHILD"

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(setupChild(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	root    string
	out     string
	smoke   bool
	args    []string // the command line, replayed to set-up children
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: pipeline, fanout, chaos or iocheck")
	seed := fset.Int64("seed", 1, "workload seed; every input seed is derived from it")
	seconds := fset.Int("seconds", 10, "wall seconds the timed loop runs")
	trace := fset.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := fset.String("root", ".", "repository root holding go.mod and scenarios/")
	out := fset.String("out", ".bench_build/perfbench", "directory the traced run writes its spans to")
	smoke := fset.Bool("smoke", false, "run a minimal loop of each phase (tests)")
	if err := fset.Parse(args); err != nil {
		return nil, err
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root,
		out: *out, smoke: *smoke, args: args}
	if o.w = findWorkload(*name); o.w == nil {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if o.seconds < 0 || (o.seconds == 0 && !o.smoke) {
		return nil, fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	}
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		return nil, fmt.Errorf("--root %s is not the repository root: %w", o.root, err)
	}
	return o, nil
}

func (o *options) setups() int {
	if o.smoke {
		return 2
	}
	return o.w.setups
}

func (o *options) warmup() int {
	if o.smoke {
		return 1
	}
	return o.w.warmup
}

// setupSample is one timed set-up: loading and validating the inputs,
// pre-generating what the ops replay, and the warm-up ops. Warmup holds
// the warm-up ops' counts for the cross-process determinism check.
type setupSample struct {
	Seconds float64  `json:"setup_s"`
	Warmup  []counts `json:"warmup"`
}

func setup(o *options, st *setupTimes) (runner, setupSample, error) {
	runtime.GOMAXPROCS(1)
	t0 := time.Now()
	r, err := o.w.load(o.root, o.seed, st)
	if err != nil {
		return nil, setupSample{}, fmt.Errorf("loading inputs: %w", err)
	}
	var s setupSample
	for i := 0; i < o.warmup(); i++ {
		if err := r.run(i, nil); err != nil {
			return nil, s, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		c, err := r.check()
		if err != nil {
			return nil, s, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		s.Warmup = append(s.Warmup, c)
	}
	s.Seconds = time.Since(t0).Seconds()
	return r, s, nil
}

func setupChild(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	_, s, err := setup(o, &setupTimes{})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(s); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// childSetup times the set-up in a fresh process and waits for it.
func childSetup(o *options) (setupSample, error) {
	self, err := os.Executable()
	if err != nil {
		return setupSample{}, err
	}
	cmd := exec.Command(self, o.args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupSample{}, fmt.Errorf("set-up child: %w", err)
	}
	var s setupSample
	if err := json.Unmarshal(out, &s); err != nil {
		return s, fmt.Errorf("set-up child output: %w", err)
	}
	return s, nil
}

// loopStats is what one timed loop measured.
type loopStats struct {
	latMs  []float64 // per op, timed part only
	runMs  []float64 // untraced Runtime.Run per op (sim workloads)
	cpuNs  int64     // process CPU, user plus system, over the timed parts
	counts []counts  // per op, indexed by op number
	failed int
	goRT   goDelta
}

// runTimer is implemented by runners whose op wraps one Runtime.Run.
type runTimer interface{ lastRunMs() float64 }

// measure runs ops 0, 1, … until dur has passed and at least minOps ran.
func measure(r runner, dur time.Duration, minOps int, tr *tracer, stderr io.Writer) loopStats {
	var ls loopStats
	g0 := readGo()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < dur; i++ {
		cpu0 := cpuNs()
		t0 := time.Now()
		tr.beginOp(i)
		err := r.run(i, tr)
		tr.endOp()
		d := time.Since(t0)
		ls.cpuNs += cpuNs() - cpu0
		ls.latMs = append(ls.latMs, float64(d)/1e6)
		if rt, ok := r.(runTimer); ok && tr == nil {
			ls.runMs = append(ls.runMs, rt.lastRunMs())
		}
		c, cerr := r.check()
		if err == nil {
			err = cerr
		}
		ls.counts = append(ls.counts, c)
		if err != nil {
			if ls.failed == 0 {
				fmt.Fprintf(stderr, "perfbench: op %d failed: %v\n", i, err)
			}
			ls.failed++
		}
	}
	ls.goRT = readGo().sub(g0)
	return ls
}

// determinism collects self-check failures; any one fails the run.
type determinism struct {
	problems []string
}

func (d *determinism) expect(ok bool, format string, args ...any) {
	if !ok {
		d.problems = append(d.problems, fmt.Sprintf(format, args...))
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var st setupTimes
	r, first, err := setup(o, &st)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	var det determinism
	setupS := []float64{first.Seconds}
	for k := 1; k < o.setups(); k++ {
		s, err := childSetup(o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		setupS = append(setupS, s.Seconds)
		det.expect(equalCounts(s.Warmup, first.Warmup),
			"set-up process %d: warm-up counts differ from the first process", k+1)
	}

	dur, minOps := time.Duration(o.seconds)*time.Second, 3
	if o.smoke {
		dur, minOps = 0, 2
	}
	if o.trace {
		dur /= 2
	}
	steal0, total0 := cpuStat()
	plain := measure(r, dur, minOps, nil, stderr)
	for i, c := range first.Warmup {
		if i < len(plain.counts) {
			det.expect(c == plain.counts[i], "op %d: counts differ between warm-up and timed run", i)
		}
	}
	attempted, failed := len(plain.latMs), plain.failed
	m := map[string]float64{}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		traced := measureTraced(r, dur, minOps, tr, &plain, &det, stderr)
		attempted += len(traced.latMs)
		failed += traced.failed
		perLayerMetrics(m, &st, &plain, &traced, tr)
		m["bench.error_rate"] = float64(failed) / float64(attempted)
	} else {
		endToEndMetrics(m, &plain, setupS)
	}

	h := hostInfo(o)
	if steal1, total1 := cpuStat(); total1 > total0 {
		h.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)
	fmt.Fprintf(stdout, "%s: %d ops timed (op_ms_p50 over %d untraced ops), %d failed, set-up samples %v s\n",
		o.w.name, attempted, len(plain.latMs), failed, setupS)
	for _, p := range det.problems {
		fmt.Fprintln(stderr, "perfbench: determinism:", p)
	}
	if tr != nil {
		if err := writeSpans(o, h, tr); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: failed == 0 && len(det.problems) == 0, Attempted: attempted,
		Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measureTraced runs the traced loop and checks its counts against the
// untraced loop's, then repeats its first op: the kernel counts only the
// traced run sees must repeat too.
func measureTraced(r runner, dur time.Duration, minOps int, tr *tracer, plain *loopStats, det *determinism, stderr io.Writer) loopStats {
	traced := measure(r, dur, minOps, tr, stderr)
	for i, c := range traced.counts {
		if i < len(plain.counts) {
			det.expect(c.equalUntraced(&plain.counts[i]), "op %d: counts differ between untraced and traced runs", i)
		}
	}
	tr.beginOp(0)
	err := r.run(0, tr)
	tr.endOp()
	again, cerr := r.check()
	det.expect(err == nil && cerr == nil && again == traced.counts[0],
		"op 0: traced counts differ between two traced runs")
	return traced
}

func endToEndMetrics(m map[string]float64, plain *loopStats, setupS []float64) {
	n := float64(len(plain.latMs))
	sumMs := 0.0
	for _, v := range plain.latMs {
		sumMs += v
	}
	m["ops_per_s"] = n / (sumMs / 1e3)
	m["op_ms_p50"] = median(plain.latMs)
	m["cpu_ms_per_op"] = float64(plain.cpuNs) / 1e6 / n
	m["rss_peak_mb"] = peakRSSMiB()
	m["setup_s"] = median(setupS)
}

func equalCounts(a, b []counts) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured untraced.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics; README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"scenario.load_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.rounds_per_op", "count"},
	{"core.actions_per_op", "count"},
	{"core.suspects_per_op", "count"},
	{"cluster.msgs_per_op", "count"},
	{"cluster.bytes_per_op", "B"},
	{"evpath.monitor_sent_per_op", "count"},
	{"sim.events_per_op", "count"},
	{"sim.wakes_per_op", "count"},
	{"sim.timeouts_per_op", "count"},
	{"sim.virtual_s_per_op", "s"},
	{"sim.ns_per_event", "ns"},
	{"datatap.steps_written_per_op", "count"},
	{"datatap.steps_pulled_per_op", "count"},
	{"datatap.max_queue", "count"},
	{"datatap.redelivered_per_op", "count"},
	{"datatap.spilled_per_op", "count"},
	{"datatap.sub_delivered_per_op", "count"},
	{"datatap.sub_spilled_per_op", "count"},
	{"datatap.sub_spill_reads_per_op", "count"},
	{"chaos.generate_ms", "ms"},
	{"chaos.run_ms", "ms"},
	{"chaos.oracles_ms", "ms"},
	{"chaos.faults_per_seed", "count"},
	{"fault.crashes_per_op", "count"},
	{"fault.ctl_dropped_per_op", "count"},
	{"trace.records_per_op", "count"},
	{"trace.dropped_per_op", "count"},
	{"analysis.load_ms", "ms"},
	{"analysis.rules_ms", "ms"},
	{"analysis.packages", "count"},
	{"analysis.files", "count"},
	{"goruntime.alloc_mb_per_op", "MiB"},
	{"goruntime.gc_cycles_per_op", "count"},
	{"goruntime.sched_wakeups_per_op", "count"},
	{"goruntime.sched_lat_p50_us", "us"},
	{"bench.ops_n", "count"},
	{"bench.op_ms_tail", "ms"},
	{"bench.op_tail_pct", "%"},
	{"bench.error_rate", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// perLayerMetrics derives the per-layer metrics. Counts and span times
// come from the traced half; the Go runtime deltas, the latency tail and
// the time per kernel event come from the untraced half, which tracing
// does not perturb.
func perLayerMetrics(m map[string]float64, st *setupTimes, plain, traced *loopStats, tr *tracer) {
	m["scenario.load_ms"] = st.scenarioLoadMs
	m["chaos.generate_ms"] = st.chaosGenMs
	for name, span := range map[string]string{
		"core.build_ms":     "core.build",
		"core.run_ms":       "core.run",
		"chaos.run_ms":      "chaos.run",
		"chaos.oracles_ms":  "chaos.oracles",
		"analysis.load_ms":  "analysis.load",
		"analysis.rules_ms": "analysis.rules",
	} {
		m[name] = median(tr.durations(span))
	}
	mean := func(c counter) float64 {
		sum := 0.0
		for i := range traced.counts {
			sum += float64(traced.counts[i][c])
		}
		return sum / float64(len(traced.counts))
	}
	for name, c := range map[string]counter{
		"core.rounds_per_op":             cRounds,
		"core.actions_per_op":            cActions,
		"core.suspects_per_op":           cSuspects,
		"cluster.msgs_per_op":            cMsgs,
		"cluster.bytes_per_op":           cBytes,
		"evpath.monitor_sent_per_op":     cMonitorSent,
		"sim.events_per_op":              cEvents,
		"sim.wakes_per_op":               cWakes,
		"sim.timeouts_per_op":            cTimeouts,
		"datatap.steps_written_per_op":   cStepsWritten,
		"datatap.steps_pulled_per_op":    cStepsPulled,
		"datatap.redelivered_per_op":     cRedelivered,
		"datatap.spilled_per_op":         cSpilled,
		"datatap.sub_delivered_per_op":   cSubDelivered,
		"datatap.sub_spilled_per_op":     cSubSpilled,
		"datatap.sub_spill_reads_per_op": cSubSpillReads,
		"chaos.faults_per_seed":          cFaults,
		"fault.crashes_per_op":           cCrashes,
		"fault.ctl_dropped_per_op":       cCtlDropped,
		"trace.records_per_op":           cTraceRecords,
		"trace.dropped_per_op":           cTraceDropped,
		"analysis.packages":              cPackages,
		"analysis.files":                 cFiles,
	} {
		m[name] = mean(c)
	}
	maxQueue := int64(0)
	for i := range traced.counts {
		maxQueue = max(maxQueue, traced.counts[i][cMaxQueue])
	}
	m["datatap.max_queue"] = float64(maxQueue)
	m["sim.virtual_s_per_op"] = mean(cVirtualNs) / 1e9
	m["sim.ns_per_event"] = 0
	if ev := mean(cEvents); ev > 0 {
		m["sim.ns_per_event"] = median(plain.runMs) * 1e6 / ev
	}

	n := float64(len(plain.latMs))
	m["goruntime.alloc_mb_per_op"] = float64(plain.goRT.allocBytes) / (1 << 20) / n
	m["goruntime.gc_cycles_per_op"] = float64(plain.goRT.gcCycles) / n
	m["goruntime.sched_wakeups_per_op"] = float64(plain.goRT.schedCount) / n
	m["goruntime.sched_lat_p50_us"] = plain.goRT.schedP50s * 1e6

	m["bench.ops_n"] = n
	m["bench.op_ms_tail"], m["bench.op_tail_pct"] = tail(plain.latMs)
	m["bench.trace_overhead_pct"] = (median(traced.latMs)/median(plain.latMs) - 1) * 100
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and that percentile (nearest rank). With ten samples
// or fewer it returns the minimum.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 10 // rank of the tail sample, 1-based
	if k < 1 {
		k = 1
	}
	return s[k-1], 100 * float64(k) / float64(len(s))
}

// cpuNs returns the process's CPU time so far, user plus system, across
// all its threads (the Go runtime's GC workers included).
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goSnap is a reading of the Go runtime's own counters.
type goSnap struct {
	allocBytes, gcCycles uint64
	sched                metrics.Float64Histogram
}

type goDelta struct {
	allocBytes, gcCycles, schedCount uint64
	schedP50s                        float64
}

func readGo() goSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var g goSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		g.sched.Counts = append([]uint64(nil), h.Counts...)
		g.sched.Buckets = append([]float64(nil), h.Buckets...)
	}
	return g
}

// sub returns the counters' growth since g0, with the median scheduling
// latency of the goroutine wake-ups in between.
func (g goSnap) sub(g0 goSnap) goDelta {
	d := goDelta{allocBytes: g.allocBytes - g0.allocBytes, gcCycles: g.gcCycles - g0.gcCycles}
	if len(g.sched.Counts) != len(g0.sched.Counts) {
		return d
	}
	delta := make([]uint64, len(g.sched.Counts))
	for i := range delta {
		delta[i] = g.sched.Counts[i] - g0.sched.Counts[i]
		d.schedCount += delta[i]
	}
	d.schedP50s = histMedian(delta, g.sched.Buckets, d.schedCount)
	return d
}

// histMedian returns the midpoint of the bucket holding the median of a
// runtime/metrics histogram with n samples in all (an infinite bucket
// edge gives way to the finite one).
func histMedian(counts []uint64, buckets []float64, n uint64) float64 {
	seen := uint64(0)
	for i, c := range counts {
		seen += c
		if c == 0 || 2*seen < n {
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return (lo + hi) / 2
	}
	return 0
}

// host is the metadata every run records next to its numbers.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	TreeFNV    string `json:"tree_fnv64a"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	// StealPct is the share of the host's CPU time the hypervisor gave
	// to other guests while the timed loops ran.
	StealPct float64 `json:"cpu_steal_pct"`
}

func hostInfo(o *options) host {
	return host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(o.root),
		TreeFNV:    treeHash(o.root),
		Workload:   o.w.name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat returns the steal and total jiffies of all CPUs from
// /proc/stat, or zeroes where it cannot be read.
func cpuStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// gitCommit names the checked-out commit, or "none" outside a git work
// tree; tree_fnv64a identifies the sources either way.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeHash digests every file under root outside dot-directories, by
// path and content, in walk order.
func treeHash(root string) string {
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != root && strings.HasPrefix(d.Name(), ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeSpans writes the traced run's spans, with the host metadata, as
// one JSON file under o.out.
func writeSpans(o *options, h host, tr *tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, tr.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.w.name, o.seed))
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
