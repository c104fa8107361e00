package core

import (
	"testing"

	"repro/internal/datatap"
	"repro/internal/evpath"
	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/trace"
)

// TestRoundServeContract drives every round request type straight into a
// container's manager loop and checks the serve contract the RoundHdr
// carries: the first copy is served once, a lower-epoch copy is fenced and
// not served, a same-seq retry is answered from the served cache, and
// every answer carries the request's Seq and the container's fenced
// epoch. A request type the manager loop does not serve never answers,
// so the test fails for it. An offline round takes the manager loop down
// with its container, so its later copies go unanswered instead.
func TestRoundServeContract(t *testing.T) {
	cases := []struct {
		name string
		mk   func(rt *Runtime) roundReq
	}{
		{"increase", func(rt *Runtime) roundReq {
			nodes := rt.shardPrimary[0].spare[:1]
			rt.shardPrimary[0].spare = rt.shardPrimary[0].spare[1:]
			return &IncreaseReq{Nodes: nodes}
		}},
		{"decrease", func(*Runtime) roundReq { return &DecreaseReq{N: 1} }},
		{"offline", func(*Runtime) roundReq { return &OfflineReq{} }},
		{"set_output", func(*Runtime) roundReq { return &SetOutputReq{Provenance: "test"} }},
		{"query", func(*Runtime) roundReq { return &QueryReq{Max: 4} }},
		{"activate", func(*Runtime) roundReq { return &ActivateReq{Active: true} }},
		{"add_tap", func(rt *Runtime) roundReq {
			return &AddTapReq{Ch: datatap.NewChannel(rt.eng, rt.mach, "ch.tap.test",
				datatap.Config{HomeNode: rt.shardPrimary[0].spare[0].ID})}
		}},
		{"rehome", func(rt *Runtime) roundReq { return &RehomeReq{Inbox: rt.shardPrimary[0].inbox()} }},
		{"sub_resume", func(*Runtime) roundReq { return &SubResumeReq{SubID: "s"} }},
		{"sub_replay", func(*Runtime) roundReq { return &SubReplayReq{SubID: "s"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := protoConfig(2, smartpointer.ModelRR)
			cfg.Trace = &trace.Config{}
			rt, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const target, epoch = "bonds", 7
			var answers []any
			rt.eng.Go("driver", func(p *sim.Proc) {
				p.Sleep(5 * sim.Second)
				stone := rt.shardPrimary[0].toContainer[target]
				rt.ctlSeq++
				seq := rt.ctlSeq
				// send submits a copy of the request stamped (seq, e) and
				// collects whatever answers within the deadline.
				send := func(e int64) {
					req := tc.mk(rt)
					*req.hdr() = RoundHdr{Seq: seq, Epoch: e}
					stone.Submit(&evpath.Event{Type: req.kind(), Size: ctlMsgBytes, Data: req})
					if ev, ok := rt.shardPrimary[0].rsp.RecvTimeout(p, 60*sim.Second); ok {
						answers = append(answers, ev.Data)
					}
				}
				send(epoch)     // served
				send(epoch - 1) // lower epoch: fenced, not served
				send(epoch)     // same-seq retry: from the served cache
			})
			rt.eng.RunUntil(200 * sim.Second)

			gone := tc.name == "offline"
			switch {
			case gone && len(answers) != 1:
				t.Fatalf("got %d answers, want 1 (served, then the manager is gone): %v", len(answers), answers)
			case gone:
			case len(answers) != 3:
				t.Fatalf("got %d answers, want 3 (served, fenced, cached): %v", len(answers), answers)
			default:
				if _, fenced := answers[1].(*FenceResp); !fenced {
					t.Errorf("lower-epoch copy answered with %T, want *FenceResp", answers[1])
				}
				if answers[0] != answers[2] {
					t.Errorf("retry answered with %T %v, want the cached %v", answers[2], answers[2], answers[0])
				}
			}
			seq := rt.ctlSeq
			fenced := rt.Container(target).fencedEpoch
			if fenced != epoch {
				t.Errorf("container fenced epoch %d, want %d", fenced, epoch)
			}
			for i, a := range answers {
				h := a.(roundMsg).hdr()
				if h.Seq != seq || h.Epoch != fenced {
					t.Errorf("answer %d (%T) carries seq %d epoch %d, want seq %d epoch %d",
						i, a, h.Seq, h.Epoch, seq, fenced)
				}
			}

			var serves, dedupes, fences int
			for _, r := range rt.Tracer().Records() {
				if r.Cat != "ctl" || r.Container != target {
					continue
				}
				switch r.Name {
				case "serve." + tc.name:
					serves++
				case "dedupe":
					dedupes++
				case "fence":
					fences++
				}
			}
			want := 1
			if gone {
				want = 0
			}
			if serves != 1 || dedupes != want || fences != want {
				t.Errorf("trace has %d serve.%s spans, %d dedupe and %d fence instants; want 1, %d and %d",
					serves, tc.name, dedupes, fences, want, want)
			}
		})
	}
}
