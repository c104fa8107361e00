package scenario

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/smartpointer"
)

const fig7JSON = `{
  "simNodes": 256,
  "stagingNodes": 13,
  "steps": 20,
  "seed": 42,
  "policy": {"offlinePatience": 4}
}`

const customJSON = `{
  "simNodes": 64,
  "stagingNodes": 16,
  "outputPeriodSec": 10,
  "steps": 8,
  "seed": 7,
  "stages": [
    {"name": "ingest", "kind": "Helper", "model": "Tree", "nodes": 4,
     "outputFactor": 1.0, "essential": true, "minSize": 2},
    {"name": "flamefront", "kind": "Custom", "model": "RR", "nodes": 4,
     "outputFactor": 0.2,
     "cost": {"baseSec": 12, "refAtoms": 2204997, "exponentOverride": 1.5}},
    {"name": "track", "kind": "Custom", "model": "Serial", "nodes": 2,
     "outputFactor": 0.05,
     "cost": {"baseSec": 2}}
  ]
}`

func TestLoadDefaultPipeline(t *testing.T) {
	cfg, err := Load(strings.NewReader(fig7JSON))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SimNodes != 256 || cfg.StagingNodes != 13 || cfg.Steps != 20 {
		t.Fatalf("cfg %+v", cfg)
	}
	if cfg.CrackStep != -1 {
		t.Fatalf("crack step %d, want -1 default", cfg.CrackStep)
	}
	if cfg.Sizes["helper"] != 6 || cfg.Sizes["bonds"] != 2 {
		t.Fatalf("sizes %v", cfg.Sizes)
	}
	// And it actually runs, matching the Fig. 7 scenario.
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 20 {
		t.Fatalf("emitted %d", res.Emitted)
	}
}

func TestLoadCustomPipeline(t *testing.T) {
	cfg, err := Load(strings.NewReader(customJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Specs) != 3 {
		t.Fatalf("specs %d", len(cfg.Specs))
	}
	ff := cfg.Specs[1]
	if ff.Kind != smartpointer.KindCustom || ff.Model != smartpointer.ModelRR {
		t.Fatalf("flamefront spec %+v", ff)
	}
	if ff.Cost.Base != 12*sim.Second || ff.Cost.ExponentOverride != 1.5 {
		t.Fatalf("flamefront cost %+v", ff.Cost)
	}
	// Omitted refAtoms defaults sensibly.
	if cfg.Specs[2].Cost.RefAtoms == 0 {
		t.Fatal("refAtoms default missing")
	}
	if cfg.OutputPeriod != 10*sim.Second {
		t.Fatalf("period %v", cfg.OutputPeriod)
	}
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 8 || res.Exits == 0 {
		t.Fatalf("emitted=%d exits=%d", res.Emitted, res.Exits)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"simNodes": 1, "unknownField": true}`,
		`{"stages": [{"name": "x", "kind": "Nope", "model": "RR"}]}`,
		`{"stages": [{"name": "x", "kind": "Bonds", "model": "Warp"}]}`,
		`{"stages": [{"name": "x", "kind": "Custom", "model": "RR"}]}`, // no cost
		`{"stages": [{"name": "x", "kind": "Helper", "model": "RR",
		   "cost": {"baseSec": 1}}]}`, // Table I violation
		`not json`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if k, err := ParseKind("csym"); err != nil || k != smartpointer.KindCSym {
		t.Fatal("csym parse")
	}
	if m, err := ParseModel("round-robin"); err != nil || m != smartpointer.ModelRR {
		t.Fatal("rr alias parse")
	}
	if m, err := ParseModel("mpi"); err != nil || m != smartpointer.ModelParallel {
		t.Fatal("mpi alias parse")
	}
	if _, err := ParseKind(""); err == nil {
		t.Fatal("empty kind should fail")
	}
}

func TestExplicitCrackZero(t *testing.T) {
	cfg, err := Load(strings.NewReader(
		`{"simNodes": 64, "stagingNodes": 13, "steps": 4, "crackStep": 0, "explicitCrack": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CrackStep != 0 {
		t.Fatalf("crack step %d, want explicit 0", cfg.CrackStep)
	}
}

func TestAtomsOverride(t *testing.T) {
	cfg, err := Load(strings.NewReader(
		`{"simNodes": 64, "stagingNodes": 13, "steps": 4, "atomsOverride": 1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale.AtomCount != 1000 || cfg.Scale.StepBytes != 8000 {
		t.Fatalf("scale %+v", cfg.Scale)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/scenario.json"
	if err := writeFile(path, fig7JSON); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SimNodes != 256 {
		t.Fatal("file load mismatch")
	}
	if _, err := LoadFile(dir + "/missing.json"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestScenarioAdvancedKnobs(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"simNodes": 64, "stagingNodes": 14, "steps": 4, "seed": 1,
		"shards": {"standbys": 1},
		"monitorSampleEverySec": 30, "monitorAggregateN": 4,
		"policy": {"killGMAtSec": 40}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ShardStandbys != 1 {
		t.Fatalf("standby knob lost: %+v", cfg)
	}
	if cfg.MonitorSampleEvery != 30*sim.Second || cfg.MonitorAggregateN != 4 {
		t.Fatalf("monitor knobs lost: %+v", cfg)
	}
	if cfg.Policy.KillGMAt != 40*sim.Second {
		t.Fatalf("kill knob lost: %v", cfg.Policy.KillGMAt)
	}
	// And the whole thing still runs (failover included).
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadFaultSchedule(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"simNodes": 64, "stagingNodes": 14, "steps": 4, "seed": 1,
		"policy": {"disableSelfHealing": true, "callTimeoutSec": 5},
		"faults": {
			"seed": 9,
			"crashes": [{"stagingIndex": 3, "atSec": 30}, {"node": 2, "atSec": 40}],
			"links": [{"fromSec": 10, "untilSec": 20, "latencyFactor": 4, "slowdownFactor": 2}],
			"partitions": [{"fromSec": 5, "untilSec": 8, "nodes": [{"node": 1}, {"stagingIndex": 0}]}],
			"drops": [{"fromSec": 0, "untilSec": 60, "prob": 0.25}],
			"stalls": [{"stagingIndex": 1, "fromSec": 12, "untilSec": 18}]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	fc := cfg.Faults
	if fc == nil {
		t.Fatal("fault schedule lost")
	}
	if fc.Seed != 9 {
		t.Fatalf("fault seed %d", fc.Seed)
	}
	// Staging indexes resolve to simNodes+index; absolute IDs pass through.
	if len(fc.Crashes) != 2 || fc.Crashes[0].Node != 67 || fc.Crashes[1].Node != 2 {
		t.Fatalf("crashes %+v", fc.Crashes)
	}
	if fc.Crashes[0].At != 30*sim.Second {
		t.Fatalf("crash time %v", fc.Crashes[0].At)
	}
	if len(fc.Links) != 1 || fc.Links[0].LatencyFactor != 4 {
		t.Fatalf("links %+v", fc.Links)
	}
	if len(fc.Partitions) != 1 || fc.Partitions[0].Nodes[1] != 64 {
		t.Fatalf("partitions %+v", fc.Partitions)
	}
	if len(fc.Drops) != 1 || fc.Drops[0].Prob != 0.25 {
		t.Fatalf("drops %+v", fc.Drops)
	}
	if len(fc.Stalls) != 1 || fc.Stalls[0].Node != 65 {
		t.Fatalf("stalls %+v", fc.Stalls)
	}
	if !cfg.Policy.DisableSelfHealing || cfg.Policy.CallTimeout != 5*sim.Second {
		t.Fatalf("policy knobs lost: %+v", cfg.Policy)
	}
	// And the whole thing still runs.
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Invalid schedules are rejected at load time, not at build time.
	if _, err := Load(strings.NewReader(`{
		"simNodes": 64, "stagingNodes": 14,
		"faults": {"drops": [{"untilSec": 1, "prob": 1.5}]}
	}`)); err == nil {
		t.Fatal("invalid fault schedule accepted")
	}
}

func TestShippedScenarioFiles(t *testing.T) {
	for _, name := range []string{"fig7", "fig9", "failover", "checkpointed", "faults"} {
		cfg, err := LoadFile("../../scenarios/" + name + ".json")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt, err := core.Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt.Shutdown() // build-only smoke: the figures test full runs
	}
}

// Satellite: load errors must name the offending file and JSON field path.
func TestLoadErrorsNameFieldPath(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"type mismatch", `{"simNodes": "many"}`, `field "simNodes"`},
		{"syntax", `{"simNodes": 4,,}`, "invalid JSON at byte"},
		{"bad kind", `{"stages": [{"name": "x", "kind": "Nope", "model": "RR"}]}`,
			`field "stages[0].kind"`},
		{"bad model", `{"stages": [{"name": "a", "kind": "Bonds", "model": "RR"},
			{"name": "b", "kind": "Bonds", "model": "Warp"}]}`,
			`field "stages[1].model"`},
		{"missing cost", `{"stages": [{"name": "x", "kind": "Custom", "model": "RR"}]}`,
			`field "stages[0].cost"`},
		{"bad drop prob", `{"simNodes": 4, "stagingNodes": 1, "steps": 1,
			"faults": {"drops": [{"fromSec": 0, "untilSec": 1, "prob": 0.5},
			                     {"fromSec": 1, "untilSec": 2, "prob": 2}]}}`,
			`field "faults.drops[1].prob"`},
		{"empty link window", `{"simNodes": 4, "stagingNodes": 1, "steps": 1,
			"faults": {"links": [{"fromSec": 5, "untilSec": 5}]}}`,
			`field "faults.links[0]"`},
		{"empty stall window", `{"simNodes": 4, "stagingNodes": 1, "steps": 1,
			"faults": {"stalls": [{"node": 0, "fromSec": 3, "untilSec": 1}]}}`,
			`field "faults.stalls[0]"`},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestLoadFileErrorNamesFile(t *testing.T) {
	path := t.TempDir() + "/broken.json"
	if err := writeFile(path, `{"simNodes": "many"}`); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name file %q", err, path)
	}
	if !strings.Contains(err.Error(), `field "simNodes"`) {
		t.Fatalf("error %q does not name the field", err)
	}
}

// Keys for tuning that is now fixed are no longer part of the schema. A
// file that still sets one must fail to load and name the key, rather than
// run quietly with tuning other than the one it asks for.
func TestRetiredKeysFailLoudly(t *testing.T) {
	// doc places the member kv (if any) in the top level, the policy or
	// the delivery section.
	doc := func(section, kv string) string {
		in := map[string]string{}
		if kv != "" {
			in[section] = ", " + kv
		}
		return `{"simNodes": 64, "stagingNodes": 14` + in[""] +
			`, "policy": {"offlinePatience": 4` + in["policy"] +
			`}, "delivery": {"mode": "at-least-once"` + in["delivery"] + `}}`
	}
	if _, err := Load(strings.NewReader(doc("", ""))); err != nil {
		t.Fatalf("base document rejected: %v", err)
	}
	for _, c := range []struct{ section, key, value string }{
		{"policy", "intervalSec", "30"},
		{"policy", "offlineQueueLen", "12"},
		{"policy", "silencePatience", "-1"},
		{"policy", "callRetries", "1"},
		{"", "spreadPlacement", "true"},
		{"delivery", "pushRetries", "5"},
		{"delivery", "pushBackoffSec", "1"},
		{"delivery", "redeliverDelaySec", "2"},
		{"delivery", "redeliverRetries", "1"},
		{"delivery", "spillQueueFrac", "0.5"},
		{"delivery", "retainCap", "16"},
		{"delivery", "drainIntervalSec", "3"},
		{"delivery", "drainBurst", "2"},
	} {
		_, err := Load(strings.NewReader(doc(c.section, `"`+c.key+`": `+c.value)))
		if err == nil {
			t.Errorf("%s: retired key accepted", c.key)
			continue
		}
		if !strings.Contains(err.Error(), `"`+c.key+`"`) {
			t.Errorf("%s: error %q does not name the key", c.key, err)
		}
	}
}
