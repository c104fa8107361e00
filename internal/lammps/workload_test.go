package lammps

import (
	"math"
	"testing"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/cluster"
	"repro/internal/datatap"
	"repro/internal/sim"
)

func TestTable2ExactRows(t *testing.T) {
	rows := Table2()
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	cases := []struct {
		nodes   int
		atoms   int64
		paperMB float64
	}{
		{256, 8819989, 67},
		{512, 17639979, 134.6},
		{1024, 35279958, 269.2},
	}
	for _, c := range cases {
		s := ScaleForNodes(c.nodes)
		if s.AtomCount != c.atoms {
			t.Fatalf("%d nodes: atoms %d, want %d", c.nodes, s.AtomCount, c.atoms)
		}
		// The 8 bytes/atom encoding reproduces the paper's MB column to
		// within rounding (the 256-node row is rounded to integer MB).
		if math.Abs(s.MB()-c.paperMB) > 0.5 {
			t.Fatalf("%d nodes: %.1f MB, paper says %.1f", c.nodes, s.MB(), c.paperMB)
		}
	}
}

func TestScaleInterpolation(t *testing.T) {
	s := ScaleForNodes(128)
	// Half of 256 nodes within density rounding.
	if s.AtomCount < 4400000 || s.AtomCount > 4420000 {
		t.Fatalf("128-node atoms %d", s.AtomCount)
	}
	if s.StepBytes != s.AtomCount*8 {
		t.Fatal("bytes/atom drifted")
	}
	if s.CheckpointBytes() != s.AtomCount*48 {
		t.Fatal("checkpoint sizing drifted")
	}
}

func TestWeakScalingMonotone(t *testing.T) {
	prev := int64(0)
	for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
		s := ScaleForNodes(n)
		if s.StepBytes <= prev {
			t.Fatalf("output not monotone at %d nodes", n)
		}
		prev = s.StepBytes
	}
}

func runWorkload(t *testing.T, w Workload, withCkpt bool) (*datatap.Channel, []*bp.ProcessGroup, int) {
	t.Helper()
	eng := sim.NewEngine(13)
	cfg := cluster.Franklin()
	cfg.Nodes = 8
	mach := cluster.New(eng, cfg)
	io := adios.NewIO(adios.DefaultDisk())
	ch := datatap.NewChannel(eng, mach, "out", datatap.Config{HomeNode: 1})
	out := io.DeclareGroup("bonds")
	out.UseDataTap(ch.NewWriter(0))
	var ckpt *adios.Group
	if withCkpt {
		ckpt = io.DeclareGroup("checkpoint")
	}
	var frames []*bp.ProcessGroup
	emitted := 0
	r := ch.NewReader(1)
	eng.Go("lammps", func(p *sim.Proc) {
		n, err := w.Run(p, out, ckpt)
		if err != nil {
			t.Error(err)
		}
		emitted = n
		ch.Close()
	})
	eng.Go("reader", func(p *sim.Proc) {
		for {
			m, ok := r.Fetch(p)
			if !ok {
				return
			}
			frames = append(frames, m.Data.(*bp.ProcessGroup))
		}
	})
	eng.Run()
	return ch, frames, emitted
}

func TestWorkloadEmitsAtPeriod(t *testing.T) {
	w := DefaultWorkload(256, 4)
	ch, frames, emitted := runWorkload(t, w, false)
	if emitted != 4 || len(frames) != 4 {
		t.Fatalf("emitted %d, fetched %d", emitted, len(frames))
	}
	if ch.Stats().BytesPulled < 4*ScaleForNodes(256).StepBytes {
		t.Fatalf("pulled bytes %d below the modeled volume", ch.Stats().BytesPulled)
	}
	for i, f := range frames {
		if f.Timestep != int64(i) {
			t.Fatalf("frame order %d -> %d", i, f.Timestep)
		}
		if f.Attrs[AttrKind] != "output" {
			t.Fatalf("kind %q", f.Attrs[AttrKind])
		}
		if f.Attrs[AttrAtoms] != "8819989" {
			t.Fatalf("atoms attr %q", f.Attrs[AttrAtoms])
		}
		if f.Var("atoms") == nil {
			t.Fatal("atoms var missing")
		}
	}
}

func TestWorkloadCrackFlag(t *testing.T) {
	w := DefaultWorkload(256, 5)
	w.CrackStep = 3
	_, frames, _ := runWorkload(t, w, false)
	for i, f := range frames {
		want := i >= 3
		if got := f.Attrs[AttrCrack] == "true"; got != want {
			t.Fatalf("step %d crack=%v, want %v", i, got, want)
		}
	}
}

func TestWorkloadCheckpointCadence(t *testing.T) {
	eng := sim.NewEngine(13)
	io := adios.NewIO(adios.DefaultDisk())
	out := io.DeclareGroup("bonds")
	ch := datatap.NewChannel(eng, nil, "ckpt", datatap.Config{})
	ckpt := io.DeclareGroup("ckpt")
	ckpt.UseDataTap(ch.NewWriter(0))
	w := DefaultWorkload(256, 6)
	w.CheckpointEvery = 2
	eng.Go("lammps", func(p *sim.Proc) {
		if _, err := w.Run(p, out, ckpt); err != nil {
			t.Error(err)
		}
		ch.Close()
	})
	var steps, bytes int64
	eng.Go("drain", func(p *sim.Proc) {
		r := ch.NewReader(0)
		for {
			m, ok := r.Fetch(p)
			if !ok {
				return
			}
			steps++
			bytes += m.Size
		}
	})
	eng.Run()
	if steps != 3 {
		t.Fatalf("checkpoints %d, want 3", steps)
	}
	if bytes != 3*ScaleForNodes(256).CheckpointBytes() {
		t.Fatalf("checkpoint bytes %d", bytes)
	}
}

func TestWorkloadStopsWhenTransportCloses(t *testing.T) {
	eng := sim.NewEngine(13)
	io := adios.NewIO(adios.DefaultDisk())
	ch := datatap.NewChannel(eng, nil, "out", datatap.Config{})
	out := io.DeclareGroup("bonds")
	out.UseDataTap(ch.NewWriter(0))
	w := DefaultWorkload(256, 10)
	var emitted int
	eng.Go("lammps", func(p *sim.Proc) {
		n, err := w.Run(p, out, nil)
		if err != nil {
			t.Error(err)
		}
		emitted = n
	})
	eng.At(40*sim.Second, ch.Close) // closes after ~2 steps
	eng.Go("drain", func(p *sim.Proc) {
		r := ch.NewReader(0)
		for {
			if _, ok := r.Fetch(p); !ok {
				return
			}
		}
	})
	eng.Run()
	if emitted >= 10 || emitted < 1 {
		t.Fatalf("emitted %d; should stop early on close", emitted)
	}
}
