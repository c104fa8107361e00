package adios

import (
	"testing"

	"repro/internal/bp"
	"repro/internal/cluster"
	"repro/internal/datatap"
	"repro/internal/sim"
)

func testIO() (*sim.Engine, *cluster.Machine, *IO) {
	eng := sim.NewEngine(5)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	return eng, mach, NewIO(DefaultDisk())
}

func TestDeclareGroupIdempotent(t *testing.T) {
	_, _, io := testIO()
	a := io.DeclareGroup("atoms")
	b := io.DeclareGroup("atoms")
	if a != b {
		t.Fatal("DeclareGroup should return the same group")
	}
	if a.method != MethodNull {
		t.Fatalf("initial method %q", a.method)
	}
}

func TestNullMethodDiscards(t *testing.T) {
	eng, _, io := testIO()
	g := io.DeclareGroup("g")
	eng.Go("w", func(p *sim.Proc) {
		sw, _ := g.Open(1)
		sw.WriteInt64s("x", []int64{1, 2, 3})
		ok, err := sw.Close(p)
		if !ok || err != nil {
			t.Errorf("close: %v %v", ok, err)
		}
		if p.Now() != 0 {
			t.Errorf("null method charged %v", p.Now())
		}
	})
	eng.Run()
}

func TestDataTapMethodRoutesToChannel(t *testing.T) {
	eng, mach, io := testIO()
	ch := datatap.NewChannel(eng, mach, "ch", datatap.Config{HomeNode: 1})
	g := io.DeclareGroup("atoms")
	g.UseDataTap(ch.NewWriter(0))
	r := ch.NewReader(1)
	var got *bp.ProcessGroup
	eng.Go("writer", func(p *sim.Proc) {
		sw, _ := g.Open(7)
		sw.WriteInt64s("pos", make([]int64, 100))
		sw.SetAttr("note", "hi")
		if ok, err := sw.Close(p); !ok || err != nil {
			t.Errorf("close: %v %v", ok, err)
		}
	})
	eng.Go("reader", func(p *sim.Proc) {
		m, ok := r.Fetch(p)
		if !ok {
			t.Error("fetch failed")
			return
		}
		got = m.Data.(*bp.ProcessGroup)
		if m.Size != 800 {
			t.Errorf("size %d", m.Size)
		}
	})
	eng.Run()
	if got == nil || got.Timestep != 7 || got.Var("pos") == nil || got.Attrs["note"] != "hi" {
		t.Fatalf("payload %+v", got)
	}
}

func TestFileMethodWritesReadableBP(t *testing.T) {
	eng, _, io := testIO()
	sink, err := NewFileSink("out.bp")
	if err != nil {
		t.Fatal(err)
	}
	g := io.DeclareGroup("atoms")
	g.UseFile(sink)
	var elapsed sim.Time
	eng.Go("w", func(p *sim.Proc) {
		for step := int64(0); step < 3; step++ {
			sw, _ := g.Open(step)
			sw.WriteInt64s("ids", []int64{step, step + 1})
			start := p.Now()
			if ok, err := sw.Close(p); !ok || err != nil {
				t.Errorf("close: %v %v", ok, err)
			}
			elapsed = p.Now() - start
		}
	})
	eng.Run()
	if elapsed < DefaultDisk().Latency {
		t.Fatalf("disk write charged %v; should include latency", elapsed)
	}
	r, err := sink.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps() != 3 {
		t.Fatalf("reader steps %d", r.Steps())
	}
	pg, err := r.ReadStep(2)
	if err != nil || pg.Timestep != 2 || pg.Var("ids").Data.([]int64)[1] != 3 {
		t.Fatalf("readback %+v %v", pg, err)
	}
}

func TestMethodSwitchMidRunWithProvenance(t *testing.T) {
	// The offline transition: a group streaming via DataTap switches to
	// the file method and stamps provenance attributes.
	eng, mach, io := testIO()
	ch := datatap.NewChannel(eng, mach, "ch", datatap.Config{HomeNode: 1})
	g := io.DeclareGroup("atoms")
	g.UseDataTap(ch.NewWriter(0))
	r := ch.NewReader(1)
	sink, _ := NewFileSink("offline.bp")
	eng.Go("reader", func(p *sim.Proc) {
		for {
			if _, ok := r.Fetch(p); !ok {
				return
			}
		}
	})
	eng.Go("writer", func(p *sim.Proc) {
		for step := int64(0); step < 2; step++ {
			sw, _ := g.Open(step)
			sw.WriteInt64s("x", []int64{1})
			sw.Close(p)
		}
		// Container goes offline: switch method, stamp provenance.
		g.UseFile(sink)
		g.SetAttr("provenance.pending", "bonds,csym,cna")
		for step := int64(2); step < 4; step++ {
			sw, _ := g.Open(step)
			sw.WriteInt64s("x", []int64{1})
			sw.Close(p)
		}
		ch.Close()
	})
	eng.Run()
	if g.method != MethodFile {
		t.Fatalf("method %q", g.method)
	}
	rd, err := sink.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rd.Steps() != 2 {
		t.Fatalf("offline steps %d", rd.Steps())
	}
	pg, _ := rd.ReadStep(0)
	if pg.Attrs["provenance.pending"] != "bonds,csym,cna" {
		t.Fatalf("provenance missing: %v", pg.Attrs)
	}
	if pg.Timestep != 2 {
		t.Fatalf("first offline step %d", pg.Timestep)
	}
}

func TestCloseTwiceFails(t *testing.T) {
	eng, _, io := testIO()
	g := io.DeclareGroup("g")
	eng.Go("w", func(p *sim.Proc) {
		sw, _ := g.Open(0)
		if _, err := sw.Close(p); err != nil {
			t.Error(err)
		}
		if _, err := sw.Close(p); err == nil {
			t.Error("second close should fail")
		}
		if err := sw.Write(bp.Var{}); err == nil {
			t.Error("write after close should fail")
		}
	})
	eng.Run()
}

func TestUnboundMethodsError(t *testing.T) {
	eng, _, io := testIO()
	g := io.DeclareGroup("g")
	g.method = MethodDataTap // bound method without binding
	eng.Go("w", func(p *sim.Proc) {
		sw, _ := g.Open(0)
		if _, err := sw.Close(p); err == nil {
			t.Error("datatap without binding should fail")
		}
		g.method = MethodFile
		sw, _ = g.Open(1)
		if _, err := sw.Close(p); err == nil {
			t.Error("file without binding should fail")
		}
		g.method = Method("BOGUS")
		sw, _ = g.Open(2)
		if _, err := sw.Close(p); err == nil {
			t.Error("unknown method should fail")
		}
	})
	eng.Run()
}

func TestDataTapRejectionPropagates(t *testing.T) {
	eng, mach, io := testIO()
	ch := datatap.NewChannel(eng, mach, "ch", datatap.Config{HomeNode: 1})
	g := io.DeclareGroup("g")
	g.UseDataTap(ch.NewWriter(0))
	ch.Close()
	eng.Go("w", func(p *sim.Proc) {
		sw, _ := g.Open(0)
		ok, err := sw.Close(p)
		if ok || err != nil {
			t.Errorf("want ok=false err=nil, got %v %v", ok, err)
		}
	})
	eng.Run()
}

func TestDiskModelWriteTime(t *testing.T) {
	d := DiskModel{BandwidthMBps: 100, Latency: sim.Millisecond}
	small := d.writeTime(0)
	if small != sim.Millisecond {
		t.Fatalf("zero-size write %v", small)
	}
	big := d.writeTime(100 << 20) // 100 MiB at 100 MiB/s = 1 s
	want := sim.Millisecond + sim.Second
	if big != want {
		t.Fatalf("big write %v, want %v", big, want)
	}
	z := DiskModel{Latency: 2 * sim.Millisecond}
	if z.writeTime(1<<20) != 2*sim.Millisecond {
		t.Fatal("zero-bandwidth model should charge only latency")
	}
}

func TestFileSinkAppendAfterFinishFails(t *testing.T) {
	eng, _, io := testIO()
	sink, _ := NewFileSink("x")
	if _, err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	g := io.DeclareGroup("g")
	g.UseFile(sink)
	eng.Go("w", func(p *sim.Proc) {
		sw, _ := g.Open(0)
		if _, err := sw.Close(p); err == nil {
			t.Error("append after finish should fail")
		}
	})
	eng.Run()
	if sink.name != "x" {
		t.Fatalf("sink name %q", sink.name)
	}
}
