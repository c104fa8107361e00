package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestFanOutSpawnsNoSubscriberProcesses pins that the dashboard fleet
// costs no processes: subscribers are event chains, so the dashboard
// scenario spawns the same few dozen processes (writers, containers,
// managers) at 500 and at 2,000 subscribers, and none is left parked.
func TestFanOutSpawnsNoSubscriberProcesses(t *testing.T) {
	cfg, err := scenario.LoadFile("../../scenarios/dashboards.json")
	if err != nil {
		t.Fatal(err)
	}
	spawns := map[int]int64{}
	for _, n := range []int{500, 2000} {
		subs := *cfg.Subscribers
		subs.Count = n
		c := cfg
		c.Subscribers = &subs
		rt, err := core.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		st := rt.Engine().Stats()
		spawns[n] = st.Spawns
		if st.Spawns > 64 {
			t.Errorf("subs=%d: %d processes spawned, want at most 64", n, st.Spawns)
		}
		if b := rt.Engine().Blocked(); len(b) != 0 {
			t.Errorf("subs=%d: parked after the run: %v", n, b)
		}
	}
	if spawns[500] != spawns[2000] {
		t.Errorf("spawns depend on the fleet size: %s", fmt.Sprint(spawns))
	}
}

// spawnNames is a kernel tracer that records the name of every process
// the engine starts.
type spawnNames []string

func (s *spawnNames) Event(_ sim.Time, what string) {
	if name, ok := strings.CutPrefix(what, "start "); ok {
		*s = append(*s, name)
	}
}

// TestControlOverlaySpawnsNoForwarders pins that processes exist only
// where something blocks: evpath bridges, container heartbeats and
// replica watchers are event chains, so no process carries their names,
// the spawn counts stay within their bounds, and no process is left
// parked after the run.
func TestControlOverlaySpawnsNoForwarders(t *testing.T) {
	for _, tc := range []struct {
		scenario  string
		maxSpawns int64
	}{
		{"fig9", 34},
		{"chaos-shards", 20},
		{"shards-1k", 2202},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			cfg, err := scenario.LoadFile("../../scenarios/" + tc.scenario + ".json")
			if err != nil {
				t.Fatal(err)
			}
			rt, err := core.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var names spawnNames
			rt.Engine().SetTracer(&names)
			if _, err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if n == "evpath-bridge" || strings.HasSuffix(n, "-heartbeat") || strings.HasSuffix(n, "-watch") {
					t.Errorf("process %q spawned; bridges, heartbeats and watchers are event chains", n)
				}
			}
			if st := rt.Engine().Stats(); st.Spawns > tc.maxSpawns {
				t.Errorf("%d processes spawned, want at most %d", st.Spawns, tc.maxSpawns)
			} else {
				t.Logf("%d processes spawned, %d wakes", st.Spawns, st.Wakes)
			}
			if b := rt.Engine().Blocked(); len(b) != 0 {
				t.Errorf("parked after the run: %v", b)
			}
		})
	}
}

// TestPollTicksResumeNoProcess pins that replica polls run as kernel
// callbacks: fig9's idle replicas and fetch waits on an empty input keep
// every poll event (the event count is unchanged), but a replica process
// resumes only to act, so wakes stay near a tenth of the 11,330 that
// resuming on every poll took.
func TestPollTicksResumeNoProcess(t *testing.T) {
	cfg, err := scenario.LoadFile("../../scenarios/fig9.json")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.Engine().Stats()
	if st.Events != 14297 {
		t.Errorf("%d events, want 14297", st.Events)
	}
	if st.Wakes > 1300 {
		t.Errorf("%d wakes, want at most 1300", st.Wakes)
	}
	t.Logf("%+v", st)
}
