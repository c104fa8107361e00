package monitor

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/evpath"
	"repro/internal/sim"
)

func sample(c string, step int64, lat sim.Time, q int, at sim.Time) Sample {
	return Sample{Container: c, Step: step, Latency: lat, QueueLen: q, At: at}
}

func TestWindowEviction(t *testing.T) {
	w := &Window{Span: 10 * sim.Second}
	for i := 0; i < 5; i++ {
		w.Add(sample("c", int64(i), sim.Second, 0, sim.Time(i)*4*sim.Second))
	}
	// At t=16s with span 10s, samples before 6s (t=0, t=4) are evicted.
	if w.Len() != 3 {
		t.Fatalf("retained %d, want 3", w.Len())
	}
	if w.Samples()[0].Step != 2 {
		t.Fatalf("oldest retained step %d", w.Samples()[0].Step)
	}
	// Unbounded window keeps everything.
	u := &Window{}
	for i := 0; i < 5; i++ {
		u.Add(sample("c", int64(i), sim.Second, 0, sim.Time(i)*sim.Hour))
	}
	if u.Len() != 5 {
		t.Fatal("unbounded window evicted")
	}
}

func TestWindowStats(t *testing.T) {
	w := &Window{}
	if w.AvgLatency() != 0 || w.LastQueueLen() != 0 || w.QueueTrend() != 0 {
		t.Fatal("empty window stats should be zero")
	}
	w.Add(sample("c", 0, 10*sim.Second, 2, 0))
	w.Add(sample("c", 1, 20*sim.Second, 4, sim.Second))
	w.Add(sample("c", 2, 30*sim.Second, 6, 2*sim.Second))
	if w.AvgLatency() != 20*sim.Second {
		t.Fatalf("avg %v", w.AvgLatency())
	}
	if w.LastQueueLen() != 6 {
		t.Fatalf("last queue %d", w.LastQueueLen())
	}
	if got := w.QueueTrend(); got != 2 {
		t.Fatalf("trend %g, want 2/step", got)
	}
}

func TestAggregatorBottleneck(t *testing.T) {
	a := NewAggregator(0)
	if _, _, ok := a.Bottleneck(nil); ok {
		t.Fatal("empty aggregator should have no bottleneck")
	}
	a.Ingest(sample("helper", 0, 2*sim.Second, 0, 0))
	a.Ingest(sample("bonds", 0, 40*sim.Second, 3, 0))
	a.Ingest(sample("csym", 0, 8*sim.Second, 1, 0))
	name, avg, ok := a.Bottleneck(nil)
	if !ok || name != "bonds" || avg != 40*sim.Second {
		t.Fatalf("bottleneck %q %v %v", name, avg, ok)
	}
	// Candidate filtering.
	name, _, ok = a.Bottleneck([]string{"helper", "csym"})
	if !ok || name != "csym" {
		t.Fatalf("filtered bottleneck %q", name)
	}
	// Unknown candidates are skipped.
	if _, _, ok := a.Bottleneck([]string{"nope"}); ok {
		t.Fatal("unknown candidate should not be a bottleneck")
	}
	if a.TotalSamples() != 3 {
		t.Fatalf("total %d", a.TotalSamples())
	}
	if got := a.Containers(); len(got) != 3 || got[0] != "helper" {
		t.Fatalf("containers %v", got)
	}
	if a.Window("bonds") == nil || a.Window("nope") != nil {
		t.Fatal("window lookup broken")
	}
}

// ingest returns a handler feeding each sample event into agg.
func ingest(agg *Aggregator) func(*evpath.Event) {
	return func(ev *evpath.Event) { agg.Ingest(ev.Data.(Sample)) }
}

func TestOverlayFeedsAggregator(t *testing.T) {
	// Samples flow replica -> bridge -> a handler stone feeding the
	// aggregator, across the simulated network.
	eng := sim.NewEngine(3)
	cfg := cluster.Franklin()
	cfg.Nodes = 4
	mach := cluster.New(eng, cfg)
	gmMgr := evpath.NewManager(eng, mach, 0)
	agg := NewAggregator(sim.Minute)
	root := gmMgr.NewStone(ingest(agg))
	replicaMgr := evpath.NewManager(eng, mach, 2)
	br := replicaMgr.NewBridge(root)
	eng.Go("replica", func(p *sim.Proc) {
		for i := int64(0); i < 4; i++ {
			p.Sleep(15 * sim.Second)
			br.Submit(Event(sample("bonds", i, 20*sim.Second, int(i), p.Now())))
		}
	})
	eng.Run()
	if agg.TotalSamples() != 4 {
		t.Fatalf("aggregated %d samples", agg.TotalSamples())
	}
	name, avg, ok := agg.Bottleneck(nil)
	if !ok || name != "bonds" || avg != 20*sim.Second {
		t.Fatalf("bottleneck %q %v", name, avg)
	}
}

func TestRankedOrdersByLatency(t *testing.T) {
	a := NewAggregator(0)
	a.Ingest(sample("fast", 0, sim.Second, 0, 0))
	a.Ingest(sample("slow", 0, 30*sim.Second, 0, 0))
	a.Ingest(sample("mid", 0, 10*sim.Second, 0, 0))
	got := a.Ranked(nil)
	want := []string{"slow", "mid", "fast"}
	if len(got) != 3 {
		t.Fatalf("ranked %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranked %v, want %v", got, want)
		}
	}
	// Candidates subset preserved; unknown/sampleless dropped.
	got = a.Ranked([]string{"fast", "nope", "slow"})
	if len(got) != 2 || got[0] != "slow" || got[1] != "fast" {
		t.Fatalf("subset ranked %v", got)
	}
}

func TestProbeRateLimiting(t *testing.T) {
	eng := sim.NewEngine(3)
	mgr := evpath.NewManager(eng, nil, 0)
	agg := NewAggregator(0)
	out := mgr.NewStone(ingest(agg))
	pr := NewProbe(out)
	pr.Every = 10 * sim.Second
	eng.Go("src", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(sim.Second)
			pr.Offer(sample("c", int64(i), sim.Second, 0, p.Now()))
		}
	})
	eng.Run()
	if pr.Seen() != 20 {
		t.Fatalf("seen %d", pr.Seen())
	}
	// 20 samples over 20s at one per 10s: first + two rate-limited.
	if pr.Sent() > 3 || pr.Sent() < 2 {
		t.Fatalf("sent %d, want 2-3", pr.Sent())
	}
	if agg.TotalSamples() != pr.Sent() {
		t.Fatal("aggregator mismatch")
	}
}

func TestProbeAggregation(t *testing.T) {
	eng := sim.NewEngine(3)
	mgr := evpath.NewManager(eng, nil, 0)
	var got []Sample
	out := mgr.NewStone(func(ev *evpath.Event) {
		got = append(got, ev.Data.(Sample))
	})
	pr := NewProbe(out)
	pr.AggregateN = 4
	eng.Go("src", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(sim.Second)
			pr.Offer(sample("c", int64(i), sim.Time(i)*sim.Second, i, p.Now()))
		}
	})
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("forwarded %d aggregates, want 2", len(got))
	}
	// First aggregate: mean of latencies 0,1,2,3 seconds = 1.5s.
	if got[0].Latency != 1500*sim.Millisecond {
		t.Fatalf("mean latency %v", got[0].Latency)
	}
	if got[0].QueueLen != 1 { // (0+1+2+3)/4
		t.Fatalf("mean queue %d", got[0].QueueLen)
	}
}

// A probe with no rate limit and AggregateN ≤ 1 forwards every sample
// unchanged, one event each: the path every container reports through
// unless the run tunes its monitoring.
func TestProbePassThrough(t *testing.T) {
	eng := sim.NewEngine(3)
	mgr := evpath.NewManager(eng, nil, 0)
	var got []Sample
	out := mgr.NewStone(func(ev *evpath.Event) {
		got = append(got, ev.Data.(Sample))
	})
	pr := NewProbe(out)
	pr.AggregateN = 1
	var want []Sample
	eng.Go("src", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(sim.Millisecond)
			s := Sample{Container: "c", Step: int64(i), Latency: sim.Time(i+9) * sim.Second,
				Service: 5 * sim.Second, QueueLen: 7 + i, At: p.Now()}
			want = append(want, s)
			pr.Offer(s)
		}
	})
	eng.Run()
	if pr.Seen() != 5 || pr.Sent() != 5 {
		t.Fatalf("seen %d sent %d, want 5 and 5", pr.Seen(), pr.Sent())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("forwarded %+v, want %+v", got, want)
	}
}
