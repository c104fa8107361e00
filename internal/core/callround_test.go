package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/smartpointer"
	"repro/internal/trace"
)

// TestCallRoundRetryBudget pins callRound's retry ladder against a
// container whose manager node is dead. With CallTimeout T and
// CallRetries 2 the round is sent three times under one Seq (Retry 0, 1,
// 2), each deadline double the last, so the sends fall at t, t+T and
// t+3T and the budget runs out at t+7T with exactly one suspect action.
func TestCallRoundRetryBudget(t *testing.T) {
	const T = 2 * sim.Second
	cfg := protoConfig(2, smartpointer.ModelRR)
	cfg.Policy.CallTimeout = T
	cfg.Policy.CallRetries = 2
	probe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node := probe.Container("bonds").mgrEV.Node()
	if node == probe.shardPrimary[0].node {
		t.Fatalf("bonds' manager shares node %d with the global manager", node)
	}
	cfg.Faults = &fault.Config{Crashes: []fault.Crash{{Node: node, At: 2 * sim.Second}}}
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const start = 5 * sim.Second
	answered := true
	rt.eng.GoAt(start, "driver", func(p *sim.Proc) {
		answered = rt.shardPrimary[0].Query(p, "bonds", 4) != nil
	})
	rt.eng.RunUntil(start + 20*T)
	if answered {
		t.Fatal("a round to a dead manager was answered")
	}

	var sends []RoundRecord
	for _, r := range rt.rounds {
		if r.Target == "bonds" {
			sends = append(sends, r)
		}
	}
	at := []sim.Time{start, start + T, start + 3*T}
	if len(sends) != len(at) {
		t.Fatalf("%d sends to bonds, want %d: %+v", len(sends), len(at), sends)
	}
	for i, r := range sends {
		if r.Kind != "query" || r.Seq != sends[0].Seq || r.Retry != i || r.T != at[i] {
			t.Errorf("send %d: %s seq %d retry %d at %v, want query seq %d retry %d at %v",
				i, r.Kind, r.Seq, r.Retry, r.T, sends[0].Seq, i, at[i])
		}
	}
	var suspects []Action
	for _, a := range rt.shardPrimary[0].Actions() {
		if a.Kind == "suspect" {
			suspects = append(suspects, a)
		}
	}
	if len(suspects) != 1 || suspects[0].Target != "bonds" || suspects[0].T != start+7*T {
		t.Fatalf("suspect actions %+v, want one for bonds at %v", suspects, start+7*T)
	}
}

// TestRoundSpansEndOnEveryOutcome checks that every attempt of every
// control round ends its round span, whichever way the attempt ends: a
// span is recorded only when it ends, so each RoundRecord must have
// exactly one "round.<kind>" span with its seq and attempt. Each case
// first checks that its run reaches the outcome it is named for; the
// outcome attr is absent on answered rounds.
func TestRoundSpansEndOnEveryOutcome(t *testing.T) {
	traced := func(cfg Config) Config {
		cfg.Trace = &trace.Config{RingCap: 1 << 18}
		return cfg
	}
	run := func(t *testing.T, cfg Config) *Runtime {
		rt, err := Build(traced(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	cases := []struct {
		name    string
		outcome string
		run     func(t *testing.T) *Runtime
	}{
		{"answered", "", func(t *testing.T) *Runtime { return run(t, fig7Config()) }},
		{"timeout", "timeout", func(t *testing.T) *Runtime {
			// The headless-container run: csym's manager node dies and the
			// silence probe's round runs out of retries.
			cfg := fig7Config()
			cfg.Policy.CallTimeout = 5 * sim.Second
			cfg.Faults = &fault.Config{Crashes: []fault.Crash{{Node: 264, At: 50 * sim.Second}}}
			return run(t, cfg)
		}},
		{"fenced", "fenced", func(t *testing.T) *Runtime {
			// A one-shard partition failover healed while the partitioned
			// primary is still issuing rounds: the first round it sends
			// after the heal is refused with a FenceResp.
			cfg := partitionGMConfig(1)
			cfg.Faults.Partitions[0].Until = 120 * sim.Second
			return run(t, cfg)
		}},
		{"dead", "dead", func(t *testing.T) *Runtime {
			// Kill the primary 3 s before the clean run's bonds increase
			// lands: the increase round is then in flight, and its answer
			// reaches a dead manager.
			cfg := fig7Config()
			cfg.ShardStandbys = 1
			cfg.Policy.KillGMAt = actionTime(t, run(t, fig7Config()), "increase", "bonds") - 3*sim.Second
			return run(t, cfg)
		}},
		{"shutdown", "shutdown", func(t *testing.T) *Runtime {
			// csym's manager dies late at the stock 30 s deadline: the
			// probe round's retries are still waiting when the run shuts
			// down.
			cfg := fig7Config()
			cfg.Faults = &fault.Config{Crashes: []fault.Crash{{Node: 264, At: 150 * sim.Second}}}
			return run(t, cfg)
		}},
		{"pending", "", func(t *testing.T) *Runtime {
			// No run buffers an answer to a round before the round is
			// sent, so seed the buffer: the round is answered from it
			// before any receive.
			rt, err := Build(traced(protoConfig(2, smartpointer.ModelRR)))
			if err != nil {
				t.Fatal(err)
			}
			gm := rt.shardPrimary[0]
			buffered := &QueryResp{RoundHdr: RoundHdr{Seq: rt.ctlSeq + 1}, Size: -1}
			var got *QueryResp
			rt.eng.GoAt(5*sim.Second, "driver", func(p *sim.Proc) {
				gm.pending = append(gm.pending, buffered)
				got = gm.Query(p, "bonds", 4)
			})
			if _, err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if got != buffered {
				t.Fatalf("query returned %+v, want the buffered answer %+v", got, buffered)
			}
			return rt
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := tc.run(t)
			if n := rt.Tracer().Dropped(); n != 0 {
				t.Fatalf("trace ring dropped %d records", n)
			}
			type attempt struct {
				name     string
				seq, try string
			}
			spans := map[attempt]int{}
			reached := false
			for _, r := range rt.Tracer().Records() {
				if r.Cat != "ctl" || !strings.HasPrefix(r.Name, "round.") {
					continue
				}
				spans[attempt{r.Name, r.Attr("seq"), r.Attr("attempt")}]++
				reached = reached || r.Attr("outcome") == tc.outcome
			}
			if !reached {
				t.Fatalf("no round span ended with outcome %q", tc.outcome)
			}
			for _, r := range rt.rounds {
				a := attempt{"round." + r.Kind, fmt.Sprint(r.Seq), fmt.Sprint(r.Retry)}
				if n := spans[a]; n != 1 {
					t.Errorf("round %s seq %d attempt %d to %s at %v: %d spans, want 1",
						r.Kind, r.Seq, r.Retry, r.Target, r.T, n)
				}
				delete(spans, a)
			}
			for a, n := range spans {
				t.Errorf("%d %s spans (seq %s, attempt %s) without a recorded round", n, a.name, a.seq, a.try)
			}
		})
	}
}

// actionTime returns when the run's first kind action on target was
// recorded.
func actionTime(t *testing.T, rt *Runtime, kind, target string) sim.Time {
	t.Helper()
	for _, a := range rt.shardPrimary[0].Actions() {
		if a.Kind == kind && a.Target == target {
			return a.T
		}
	}
	t.Fatalf("no %s %s action", kind, target)
	return 0
}
