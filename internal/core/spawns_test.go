package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
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
