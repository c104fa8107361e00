package fault

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// callEveryMethodOnNil calls each exported method of the pointer type of
// nilPtr on a nil receiver with zero-valued arguments and fails on a
// panic, so a method added later is held to the "nil means no faults"
// contract without a test of its own.
func callEveryMethodOnNil(t *testing.T, nilPtr any) {
	t.Helper()
	recv := reflect.ValueOf(nilPtr)
	for i := 0; i < recv.Type().NumMethod(); i++ {
		m := recv.Type().Method(i)
		nin := m.Type.NumIn()
		if m.Type.IsVariadic() {
			nin-- // Call passes an empty variadic slice
		}
		args := []reflect.Value{recv}
		for j := 1; j < nin; j++ {
			args = append(args, reflect.Zero(m.Type.In(j)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(%v).%s panicked on a nil receiver: %v", recv.Type(), m.Name, r)
				}
			}()
			m.Func.Call(args)
		}()
	}
}

func TestNilScheduleIsFaultFree(t *testing.T) {
	var s *Schedule
	if !s.NodeUp(3) {
		t.Fatal("nil schedule should report nodes up")
	}
	if s.LatencyFactor() != 1 || s.SlowdownFactor() != 1 {
		t.Fatal("nil schedule should not degrade links")
	}
	if s.Partitioned(0, 1) || s.DropCtl() {
		t.Fatal("nil schedule should inject nothing")
	}
	if s.StallRemaining(0) != 0 {
		t.Fatal("nil schedule should have no stalls")
	}
	s.OnCrash(func(int) {}) // must not panic
	s.Crash(0)              // must not panic
	s.NoteSendFailed()      // must not panic
	if s.Stats() != (Stats{}) {
		t.Fatal("nil schedule stats should be zero")
	}
	if s.DownNodes() != nil {
		t.Fatal("nil schedule has no down nodes")
	}
	callEveryMethodOnNil(t, s)
}

func TestScheduledCrashFiresAtTime(t *testing.T) {
	eng := sim.NewEngine(1)
	s, err := NewSchedule(eng, Config{
		Crashes: []Crash{{Node: 2, At: 10 * sim.Second}, {Node: 5, At: 20 * sim.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var fired []struct {
		node int
		at   sim.Time
	}
	s.OnCrash(func(n int) {
		fired = append(fired, struct {
			node int
			at   sim.Time
		}{n, eng.Now()})
	})
	if !s.NodeUp(2) {
		t.Fatal("node 2 down before its crash time")
	}
	eng.Run()
	if len(fired) != 2 {
		t.Fatalf("fired %d crashes, want 2", len(fired))
	}
	if fired[0].node != 2 || fired[0].at != 10*sim.Second {
		t.Fatalf("first crash %+v", fired[0])
	}
	if fired[1].node != 5 || fired[1].at != 20*sim.Second {
		t.Fatalf("second crash %+v", fired[1])
	}
	if s.NodeUp(2) || s.NodeUp(5) || !s.NodeUp(3) {
		t.Fatal("down set wrong after crashes")
	}
	if got := s.DownNodes(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("DownNodes %v", got)
	}
	if s.Stats().CrashesFired != 2 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _ := NewSchedule(eng, Config{})
	count := 0
	s.OnCrash(func(int) { count++ })
	s.Crash(7)
	s.Crash(7)
	if count != 1 || s.Stats().CrashesFired != 1 {
		t.Fatalf("double crash fired handlers %d times", count)
	}
}

func TestLinkWindowsMultiply(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _ := NewSchedule(eng, Config{
		Links: []LinkFault{
			{From: 10 * sim.Second, Until: 20 * sim.Second, LatencyFactor: 3, SlowdownFactor: 2},
			{From: 15 * sim.Second, Until: 30 * sim.Second, LatencyFactor: 4},
		},
	})
	at := func(t sim.Time) (float64, float64) {
		eng.At(t, func() {})
		eng.RunUntil(t)
		return s.LatencyFactor(), s.SlowdownFactor()
	}
	if lf, sf := at(5 * sim.Second); lf != 1 || sf != 1 {
		t.Fatalf("before windows: %v %v", lf, sf)
	}
	if lf, sf := at(12 * sim.Second); lf != 3 || sf != 2 {
		t.Fatalf("first window: %v %v", lf, sf)
	}
	if lf, _ := at(17 * sim.Second); lf != 12 {
		t.Fatalf("overlap should multiply: %v", lf)
	}
	if lf, sf := at(25 * sim.Second); lf != 4 || sf != 1 {
		t.Fatalf("second window only: %v %v", lf, sf)
	}
	if lf, _ := at(35 * sim.Second); lf != 1 {
		t.Fatalf("after windows: %v", lf)
	}
}

func TestPartitionSeversOnlyAcrossBoundary(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _ := NewSchedule(eng, Config{
		Partitions: []Partition{{From: 0, Until: 10 * sim.Second, Nodes: []int{1, 2}}},
	})
	if !s.Partitioned(0, 1) || !s.Partitioned(2, 3) {
		t.Fatal("boundary-crossing pairs should be severed")
	}
	if s.Partitioned(1, 2) {
		t.Fatal("both endpoints inside: reachable")
	}
	if s.Partitioned(0, 3) {
		t.Fatal("both endpoints outside: reachable")
	}
	eng.At(10*sim.Second, func() {})
	eng.Run()
	if s.Partitioned(0, 1) {
		t.Fatal("window over; partition should heal")
	}
}

func TestDropWindowDeterministicAndBounded(t *testing.T) {
	run := func() (dropped int64) {
		eng := sim.NewEngine(1)
		s, _ := NewSchedule(eng, Config{
			Seed:  99,
			Drops: []DropWindow{{From: 0, Until: sim.Minute, Prob: 0.5}},
		})
		for i := 0; i < 1000; i++ {
			s.DropCtl()
		}
		return s.Stats().CtlDropped
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("drop stream not deterministic: %d vs %d", a, b)
	}
	if a < 300 || a > 700 {
		t.Fatalf("dropped %d of 1000 at p=0.5", a)
	}
	// Outside the window nothing is dropped and the stream is untouched.
	eng := sim.NewEngine(1)
	s, _ := NewSchedule(eng, Config{
		Drops: []DropWindow{{From: sim.Minute, Until: 2 * sim.Minute, Prob: 1}},
	})
	for i := 0; i < 100; i++ {
		if s.DropCtl() {
			t.Fatal("dropped outside the window")
		}
	}
}

func TestStallWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	s, _ := NewSchedule(eng, Config{
		Stalls: []Stall{{Node: 4, From: 10 * sim.Second, Until: 25 * sim.Second}},
	})
	if s.StallRemaining(4) != 0 {
		t.Fatal("stalled before the window")
	}
	eng.At(15*sim.Second, func() {})
	eng.RunUntil(15 * sim.Second)
	if s.StallRemaining(4) == 0 || s.StallRemaining(3) != 0 {
		t.Fatal("stall targeting wrong")
	}
	if rem := s.StallRemaining(4); rem != 10*sim.Second {
		t.Fatalf("remaining %v, want 10s", rem)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	eng := sim.NewEngine(1)
	bad := []Config{
		{Crashes: []Crash{{Node: -1}}},
		{Links: []LinkFault{{From: 5, Until: 5}}},
		{Drops: []DropWindow{{Until: 1, Prob: 1.5}}},
	}
	for i, cfg := range bad {
		if _, err := NewSchedule(eng, cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestEmpty(t *testing.T) {
	var nilCfg *Config
	if !nilCfg.Empty() {
		t.Fatal("nil config is empty")
	}
	if !(&Config{Seed: 5}).Empty() {
		t.Fatal("seed-only config is empty")
	}
	if (&Config{Crashes: []Crash{{Node: 1}}}).Empty() {
		t.Fatal("crash config is not empty")
	}
	callEveryMethodOnNil(t, nilCfg)
}
