package trace

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// callEveryMethodOnNil calls each exported method of the pointer type of
// nilPtr on a nil receiver with zero-valued arguments and fails on a
// panic, so a method added later is held to the "nil means tracing off"
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

func newEngine(t *testing.T) *sim.Engine {
	t.Helper()
	return sim.NewEngine(1)
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	sp := r.Begin(0, "core", "compute")
	if sp != nil {
		t.Fatal("nil recorder returned non-nil span")
	}
	sp.Container("x").Node(1).Step(2).Attr("k", "v").AttrInt("n", 3).End()
	if sp.ID() != 0 {
		t.Fatal("nil span ID must be 0")
	}
	r.Instant(0, "a", "b").End()
	r.Trigger("sla")
	if _, ok := r.Triggered(); ok {
		t.Fatal("nil recorder triggered")
	}
	if r.Records() != nil || r.MissingParents(5) != nil || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder holds records")
	}
	r.OnTrigger(func(string) {})
	callEveryMethodOnNil(t, r)
	callEveryMethodOnNil(t, sp)
}

func TestSpanCommitAndLabels(t *testing.T) {
	eng := newEngine(t)
	r := New(eng, Config{})
	var got []Record
	eng.Go("w", func(p *sim.Proc) {
		sp := r.Begin(0, "core", "compute").Container("bonds").Node(3).Step(7).
			Attr("z", "last").Attr("a", "first").AttrInt("bytes", 128)
		p.Sleep(5 * sim.Millisecond)
		child := r.Begin(sp.ID(), "datatap", "pull")
		p.Sleep(sim.Millisecond)
		child.End()
		sp.End()
		got = r.Records()
	})
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
	child, parent := got[0], got[1]
	if child.Parent != parent.ID {
		t.Fatalf("child.Parent = %d, want %d", child.Parent, parent.ID)
	}
	if parent.Container != "bonds" || parent.Node != 3 || parent.Step != 7 {
		t.Fatalf("labels not applied: %+v", parent)
	}
	if parent.Start != 0 || parent.End != 6*sim.Millisecond {
		t.Fatalf("span times: start=%v end=%v", parent.Start, parent.End)
	}
	if parent.Dur() != 6*sim.Millisecond {
		t.Fatalf("Dur = %v", parent.Dur())
	}
	// Attrs sorted by key at commit.
	if parent.Attrs[0].Key != "a" || parent.Attrs[1].Key != "bytes" || parent.Attrs[2].Key != "z" {
		t.Fatalf("attrs not sorted: %+v", parent.Attrs)
	}
	if parent.Attr("a") != "first" || parent.Attr("missing") != "" {
		t.Fatal("Attr lookup wrong")
	}
}

func TestRingEviction(t *testing.T) {
	eng := newEngine(t)
	r := New(eng, Config{RingCap: 4})
	eng.Go("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r.Instant(0, "t", "e").AttrInt("i", int64(i)).End()
			p.Sleep(sim.Millisecond)
		}
	})
	eng.Run()
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	recs := r.Records()
	want := []string{"6", "7", "8", "9"}
	for i, rec := range recs {
		if rec.Attr("i") != want[i] {
			t.Fatalf("ring[%d] = %s, want %s (oldest-first order broken)", i, rec.Attr("i"), want[i])
		}
	}
}

func TestTriggerFiresOnce(t *testing.T) {
	eng := newEngine(t)
	r := New(eng, Config{})
	var fired []string
	r.OnTrigger(func(reason string) { fired = append(fired, reason) })
	eng.Go("w", func(p *sim.Proc) {
		r.Trigger("sla:bonds")
		r.Trigger("crash:node3")
	})
	eng.Run()
	if len(fired) != 1 || fired[0] != "sla:bonds" {
		t.Fatalf("hook calls = %v, want [sla:bonds]", fired)
	}
	reason, ok := r.Triggered()
	if !ok || reason != "sla:bonds" {
		t.Fatalf("Triggered = %q,%v", reason, ok)
	}
	// Both triggers still leave instants in the trace.
	n := 0
	for _, rec := range r.Records() {
		if rec.Cat == "flight" && rec.Name == "trigger" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("trigger instants = %d, want 2", n)
	}
}

func TestKernelTracer(t *testing.T) {
	eng := newEngine(t)
	if NewKernel(nil) != nil {
		t.Fatal("nil recorder must yield nil kernel")
	}
	if NewKernel(New(eng, Config{})) != nil {
		t.Fatal("Kernel=false must yield nil kernel")
	}
	r := New(eng, Config{Kernel: true})
	k := NewKernel(r)
	if k == nil {
		t.Fatal("kernel tracer missing")
	}
	eng.SetTracer(k)
	eng.Go("w", func(p *sim.Proc) { p.Sleep(sim.Millisecond) })
	eng.Run()
	recs := r.Records()
	if len(recs) == 0 {
		t.Fatal("kernel tracer recorded nothing")
	}
	for _, rec := range recs {
		if rec.Cat != "sim" || !rec.Instant {
			t.Fatalf("unexpected kernel record: %+v", rec)
		}
	}
}
