package core

import (
	"strconv"
	"testing"

	"repro/internal/bp"
	"repro/internal/evpath"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/smartpointer"
)

type testPG struct{ attrs map[string]string }

func (t *testPG) toBP() *bp.ProcessGroup {
	return &bp.ProcessGroup{Group: "t", Attrs: t.attrs}
}

func TestStampBirth(t *testing.T) {
	pg := &bp.ProcessGroup{Group: "g", Attrs: map[string]string{AttrBirth: strconv.FormatInt(int64(42*sim.Second), 10)}}
	fi, err := DecodeFrame(pg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Birth != 42*sim.Second {
		t.Fatalf("birth %v", fi.Birth)
	}
}

func TestSpecValidate(t *testing.T) {
	models := smartpointer.DefaultCostModels()
	good := ComponentSpec{Name: "x", Kind: smartpointer.KindBonds,
		Model: smartpointer.ModelRR, Cost: models[smartpointer.KindBonds]}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Kind = smartpointer.KindCSym
	bad.Model = smartpointer.ModelParallel
	if err := bad.Validate(); err == nil {
		t.Fatal("CSym+Parallel should be rejected (Table I)")
	}
	bad = good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name should be rejected")
	}
	bad = good
	bad.OutputFactor = -1
	if bad.Validate() == nil {
		t.Fatal("negative output factor should be rejected")
	}
	if (&SpecError{Name: "n", Msg: "m"}).Error() == "" {
		t.Fatal("SpecError message empty")
	}
}

func TestDefaultSpecsMatchTable1(t *testing.T) {
	for _, spec := range DefaultSpecs() {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	specs := SpecsWithBondsModel(smartpointer.ModelParallel)
	for _, s := range specs {
		if s.Kind == smartpointer.KindBonds && s.Model != smartpointer.ModelParallel {
			t.Fatal("bonds model not overridden")
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// protoRuntime builds a tiny two-stage pipeline for protocol-level tests:
// a fast producer, one helper-like stage, one bonds-like stage.
func protoRuntime(t *testing.T, bondsNodes int, model smartpointer.ComputeModel) *Runtime {
	t.Helper()
	rt, err := Build(protoConfig(bondsNodes, model))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// protoConfig is protoRuntime's configuration, for tests that adjust it
// before building.
func protoConfig(bondsNodes int, model smartpointer.ComputeModel) Config {
	return Config{
		SimNodes:     16,
		StagingNodes: 13,
		Sizes:        map[string]int{"helper": 4, "bonds": bondsNodes, "csym": 1, "cna": 1},
		Steps:        4,
		CrackStep:    -1,
		Seed:         11,
		Specs:        SpecsWithBondsModel(model),
		Policy:       PolicyConfig{DisableManagement: true},
	}
}

// TestManagerInboxRoutes pins the global manager's inbox routing: a
// protocol response lands in the response mailbox only, and each pump
// message (a monitoring sample, a crack notice, a gap notice, a standby
// heartbeat) in the control mailbox only, exactly once, as the very event
// that was submitted.
func TestManagerInboxRoutes(t *testing.T) {
	rt, err := Build(protoConfig(2, smartpointer.ModelRR))
	if err != nil {
		t.Fatal(err)
	}
	// A manager that is never started, so nothing else drains its mailboxes.
	gm := newGlobalManager(rt, rt.shardPrimary[0].node, rt.cfg.Policy, nil)
	rsp := &evpath.Event{Type: msgResp, Data: &QueryResp{}}
	ctl := []*evpath.Event{
		monitor.Event(monitor.Sample{Container: "bonds"}),
		{Type: msgCrackDetected, Data: &CrackNotice{From: "bonds"}},
		{Type: msgGap, Data: &GapNotice{From: "csym", Channel: "bonds", Missing: 1}},
		{Type: msgGMHeartbeat, Data: &GMHeartbeat{Epoch: 1}},
	}
	gm.inbox().Submit(ctl[0])
	gm.inbox().Submit(rsp)
	for _, ev := range ctl[1:] {
		gm.inbox().Submit(ev)
	}
	var gotRsp, gotCtl []*evpath.Event
	rt.eng.Go("drain", func(p *sim.Proc) {
		for _, d := range []struct {
			mb  *evpath.Mailbox
			got *[]*evpath.Event
		}{{gm.rsp, &gotRsp}, {gm.ctl, &gotCtl}} {
			for {
				ev, ok := d.mb.RecvTimeout(p, 0)
				if !ok {
					break
				}
				*d.got = append(*d.got, ev)
			}
		}
	})
	rt.eng.RunUntil(sim.Millisecond)
	if len(gotRsp) != 1 || gotRsp[0] != rsp {
		t.Errorf("response mailbox got %v, want exactly the submitted response %p", gotRsp, rsp)
	}
	if len(gotCtl) != len(ctl) {
		t.Fatalf("control mailbox got %d events, want %d", len(gotCtl), len(ctl))
	}
	for i, ev := range ctl {
		if gotCtl[i] != ev {
			t.Errorf("control event %d (%s): got %p, want the submitted %p", i, ev.Type, gotCtl[i], ev)
		}
	}
}

func TestIncreaseProtocolBreakdown(t *testing.T) {
	rt := protoRuntime(t, 2, smartpointer.ModelRR)
	var resp *IncreaseResp
	rt.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(5 * sim.Second)
		nodes := rt.shardPrimary[0].spare[:2]
		rt.shardPrimary[0].spare = rt.shardPrimary[0].spare[2:]
		resp = rt.shardPrimary[0].Increase(p, "bonds", nodes)
	})
	rt.eng.RunUntil(120 * sim.Second)
	if resp == nil {
		t.Fatal("no increase response")
	}
	if resp.Size != 4 {
		t.Fatalf("size %d, want 4", resp.Size)
	}
	if resp.Launch < 3*sim.Second || resp.Launch > 27*sim.Second {
		t.Fatalf("launch cost %v outside aprun range", resp.Launch)
	}
	if resp.Intra <= 0 {
		t.Fatal("intra-container exchange cost missing")
	}
	// The paper's Fig. 4 claim: intra-container metadata exchange
	// dominates the inherent (non-aprun) protocol cost; it must at least
	// be nonzero and scale with the increase (covered by the bench).
	if rt.Container("bonds").Size() != 4 {
		t.Fatalf("container size %d", rt.Container("bonds").Size())
	}
	rt.shutdown()
	rt.eng.Run()
}

func TestDecreaseProtocolReleasesNodes(t *testing.T) {
	rt := protoRuntime(t, 4, smartpointer.ModelRR)
	var resp *DecreaseResp
	rt.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(5 * sim.Second)
		resp = rt.shardPrimary[0].Decrease(p, "bonds", 2)
	})
	rt.eng.RunUntil(200 * sim.Second)
	if resp == nil {
		t.Fatal("no decrease response")
	}
	if len(resp.Nodes) != 2 || resp.Size != 2 {
		t.Fatalf("released %d, size %d", len(resp.Nodes), resp.Size)
	}
	if rt.Container("bonds").Size() != 2 {
		t.Fatalf("container size %d", rt.Container("bonds").Size())
	}
	if rt.shardPrimary[0].Spare() < 2 {
		t.Fatalf("spare %d after release", rt.shardPrimary[0].Spare())
	}
	// Decrease must not lose steps: the channel was paused during the
	// removal and remaining replicas continue.
	rt.shutdown()
	rt.eng.Run()
}

func TestDecreaseMoreThanSizeClamps(t *testing.T) {
	rt := protoRuntime(t, 2, smartpointer.ModelRR)
	var resp *DecreaseResp
	rt.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(2 * sim.Second)
		resp = rt.shardPrimary[0].Decrease(p, "bonds", 99)
	})
	rt.eng.RunUntil(200 * sim.Second)
	if resp == nil || len(resp.Nodes) != 2 {
		t.Fatalf("resp %+v", resp)
	}
	rt.shutdown()
	rt.eng.Run()
}

func TestParallelIncreaseTearsDownAndRelaunches(t *testing.T) {
	rt := protoRuntime(t, 2, smartpointer.ModelParallel)
	var resp *IncreaseResp
	rt.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(20 * sim.Second) // let a step get in flight
		nodes := rt.shardPrimary[0].spare[:3]
		rt.shardPrimary[0].spare = rt.shardPrimary[0].spare[3:]
		resp = rt.shardPrimary[0].Increase(p, "bonds", nodes)
	})
	rt.eng.RunUntil(400 * sim.Second)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Size != 5 {
		t.Fatalf("size %d, want 5 after relaunch", resp.Size)
	}
	if rt.Container("bonds").Size() != 5 {
		t.Fatal("node set not merged")
	}
	rt.shutdown()
	rt.eng.Run()
	// The aborted in-flight step must have been requeued, not lost:
	// eventually every emitted step is processed or still queued.
	c := rt.Container("bonds")
	if c.StepsProcessed()+int64(c.input.QueueLen())+int64(rt.dropped) < int64(rt.emitted) {
		t.Fatalf("steps unaccounted: processed=%d queued=%d dropped=%d emitted=%d",
			c.StepsProcessed(), c.input.QueueLen(), rt.dropped, rt.emitted)
	}
}

func TestOfflineDirectCall(t *testing.T) {
	rt := protoRuntime(t, 2, smartpointer.ModelRR)
	var offResp *OfflineResp
	rt.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(5 * sim.Second)
		rt.shardPrimary[0].SetOutput(p, "helper", "bonds,csym,cna")
		offResp = rt.shardPrimary[0].Offline(p, "bonds")
	})
	rt.eng.RunUntil(300 * sim.Second)
	if offResp == nil {
		t.Fatal("no offline response")
	}
	if rt.Container("bonds").State() != StateOffline {
		t.Fatal("bonds not offline")
	}
	if len(offResp.Nodes) != 2 {
		t.Fatalf("released %d nodes", len(offResp.Nodes))
	}
	// Upstream now writes to disk.
	if got := rt.Container("helper").provenance; got != "bonds,csym,cna" {
		t.Fatalf("provenance %q", got)
	}
	rt.shutdown()
	rt.eng.Run()
	if diskSteps(t, rt.Container("helper")) == 0 {
		t.Fatal("helper wrote nothing to disk after offline")
	}
}

// diskSteps finishes c's disk sink and counts the steps it holds.
func diskSteps(t *testing.T, c *Container) int {
	t.Helper()
	if c.DiskSink() == nil {
		return 0
	}
	r, err := c.DiskSink().Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r.Steps()
}

func TestQueryRound(t *testing.T) {
	rt := protoRuntime(t, 2, smartpointer.ModelRR)
	var q *QueryResp
	rt.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		q = rt.shardPrimary[0].Query(p, "bonds", 24)
	})
	rt.eng.RunUntil(30 * sim.Second)
	if q == nil {
		t.Fatal("no query response")
	}
	if q.Size != 2 {
		t.Fatalf("size %d", q.Size)
	}
	// 16-node sim scale is tiny: 2 replicas more than sustain it.
	if q.Needed > 2 || q.Needed < 1 {
		t.Fatalf("needed %d", q.Needed)
	}
	if q.Period <= 0 {
		t.Fatal("period missing")
	}
	rt.shutdown()
	rt.eng.Run()
}

func TestActivateRound(t *testing.T) {
	rt := protoRuntime(t, 2, smartpointer.ModelRR)
	rt.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		if rt.Container("cna").Active() {
			t.Error("cna should start passive")
		}
		rt.shardPrimary[0].Activate(p, "cna", true)
		if !rt.Container("cna").Active() {
			t.Error("cna not activated")
		}
		rt.shardPrimary[0].Activate(p, "cna", false)
		if rt.Container("cna").Active() {
			t.Error("cna not deactivated")
		}
	})
	rt.eng.RunUntil(30 * sim.Second)
	rt.shutdown()
	rt.eng.Run()
}

func TestStateString(t *testing.T) {
	if StateOnline.String() != "online" || StateOffline.String() != "offline" {
		t.Fatal("state strings wrong")
	}
}
