package chaos

import (
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// TestRunsLeaveNoParkedProcesses sweeps the gated chaos corpus (seeds
// 1–64 of the failover, delivery and sharded scenarios) and requires
// every run to end with no parked process and no extra goroutine. A
// process left parked after shutdown keeps its coroutine, and with it
// the whole run, reachable; a worker replaying thousands of seeds would
// pile them up.
func TestRunsLeaveNoParkedProcesses(t *testing.T) {
	for _, name := range []string{"chaos-failover", "delivery", "chaos-shards"} {
		base, err := scenario.ReadFile("../../scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 64; seed++ {
			before := runtime.NumGoroutine()
			info := RunSchedule(base, Generate(seed, base, GenConfig{}))
			if info.Err != nil {
				t.Errorf("%s seed %d: %v", name, seed, info.Err)
				continue
			}
			if blocked := info.RT.Engine().Blocked(); len(blocked) > 0 {
				t.Errorf("%s seed %d: parked after the run: %v", name, seed, blocked)
			}
			// Only growth is a leak: a goroutine the testing package
			// started for an earlier test may still be exiting.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%s seed %d: %d goroutines before the run, %d after", name, seed, before, after)
			}
		}
	}
}
