package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scheduleHash is a kernel tracer that folds every executed event, its
// virtual time and what it runs, into one hash.
type scheduleHash struct {
	h      hash.Hash64
	events int64
}

func (s *scheduleHash) Event(at sim.Time, what string) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(at))
	s.h.Write(b[:])
	io.WriteString(s.h, what)
	s.events++
}

// TestKernelScheduleIsDeterministic runs each configuration several
// times under one seed, tracing on, and compares two fingerprints of the runs: the
// kernel's executed schedule event by event (the time and name of every
// callback, process start and wake) and the full trace, every span and
// instant in record order. It holds the determinism contract below the
// printed output: a range over a map that orders sends, wakes or
// callbacks, directly or through a helper, changes one of them between
// runs even where the results happen to agree.
func TestKernelScheduleIsDeterministic(t *testing.T) {
	crashReplica := func(cfg Config, name string, at sim.Time) Config {
		probe, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node := probe.Container(name).Nodes()[1].ID
		probe.Shutdown()
		cfg.Faults = &fault.Config{Crashes: []fault.Crash{{Node: node, At: at}}}
		return cfg
	}
	sharded := shardedConfig(3, 1, 24)
	sharded.CrackStep = 5
	configs := []struct {
		name string
		cfg  Config
	}{
		{"fig7", fig7Config()},
		{"fig7 heal", crashReplica(fig7Config(), "bonds", 60*sim.Second)},
		{"sharded crack", sharded},
		{"sharded dry heal", crashReplica(shardedConfig(2, 1, 18), "bonds", 60*sim.Second)},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Trace = &trace.Config{RingCap: 1 << 15}
			// Go randomizes map order per range, but a small map has only
			// a few orders and one pair of runs often agrees by chance;
			// twenty runs rarely all do.
			var sums [20]uint64
			var traces [20]string
			for i := range sums {
				rt, err := Build(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				sh := &scheduleHash{h: fnv.New64a()}
				rt.Engine().SetTracer(sh)
				if _, err := rt.Run(); err != nil {
					t.Fatal(err)
				}
				if sh.events == 0 || rt.Tracer().Dropped() != 0 {
					t.Fatalf("%d kernel events, %d trace records dropped", sh.events, rt.Tracer().Dropped())
				}
				var sb strings.Builder
				if err := trace.WriteText(&sb, rt.Tracer().Records()); err != nil {
					t.Fatal(err)
				}
				sums[i], traces[i] = sh.h.Sum64(), sb.String()
			}
			for i := 1; i < len(sums); i++ {
				if sums[i] != sums[0] {
					t.Fatalf("run %d of one seed executed a different kernel schedule than run 0 (%x, %x)", i, sums[i], sums[0])
				}
				if traces[i] != traces[0] {
					t.Fatalf("run %d of one seed recorded a different trace than run 0", i)
				}
			}
		})
	}
}
