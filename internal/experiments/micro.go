package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/txn"
)

// microRuntime builds a pipeline for the resize microbenchmarks: a small
// simulation, management disabled (the experiment drives the protocol
// directly), and a staging area wide enough for the largest resize.
func microRuntime(seed int64, bondsReplicas, staging int) (*core.Runtime, error) {
	return core.Build(core.Config{
		SimNodes:     16,
		StagingNodes: staging,
		Sizes:        map[string]int{"helper": 4, "bonds": bondsReplicas, "csym": 1, "cna": 1},
		Steps:        3,
		CrackStep:    -1,
		Seed:         seed,
		Policy:       core.PolicyConfig{DisableManagement: true},
	})
}

// resizeSweep holds one microbenchmark point.
type resizeSweep struct {
	n                         int
	total, launch, intra, mgr sim.Time
	pauseWait, drain          sim.Time
}

// Fig3 traces the increase protocol's message rounds, the structure the
// paper's Fig. 3 diagrams.
func Fig3(seed int64) (*Output, error) {
	rt, err := microRuntime(seed, 4, 64)
	if err != nil {
		return nil, err
	}
	const n = 8
	var resp *core.IncreaseResp
	var total sim.Time
	rt.Engine().Go("driver", func(p *sim.Proc) {
		p.Sleep(2 * sim.Second)
		nodes := rt.TakeSpare(n)
		start := p.Now()
		resp = rt.ShardManager(0).Increase(p, "bonds", nodes)
		total = p.Now() - start
	})
	rt.Engine().RunUntil(200 * sim.Second)
	rt.Shutdown()
	if resp == nil {
		return nil, fmt.Errorf("fig3: increase did not complete")
	}
	existing := 4
	writers := 1 // helper's lead replica writes into the bonds channel
	tab := &metrics.Table{Header: []string{"round", "messages", "purpose"}}
	tab.AddRow("1. request", 1, "global manager -> container manager: increase(n)")
	tab.AddRow("2. launch", 1, fmt.Sprintf("aprun-style launch of %d replicas (%.1fs, reported separately)", n, secs(resp.Launch)))
	tab.AddRow("3. register", n, "each new replica -> container manager: contact info")
	tab.AddRow("4. peer exchange", 2*n*existing, "pairwise endpoint metadata with existing replicas")
	tab.AddRow("5. upstream connect", n*writers, "new replicas -> upstream DataTap writers")
	tab.AddRow("6. ack", 1, "container manager -> global manager: done")
	sum := &metrics.Table{Header: []string{"metric", "value"}}
	sum.AddRow("total (s)", secs(total))
	sum.AddRow("launch (s)", secs(resp.Launch))
	sum.AddRow("intra-container (s)", secs(resp.Intra))
	sum.AddRow("manager msgs (s)", secs(total-resp.Launch-resp.Intra))
	return &Output{
		ID:    "fig3",
		Title: "Increase Container Protocol",
		Sections: []Section{
			{Name: "protocol rounds", Table: tab},
			{Name: "measured breakdown (increase by 8)", Table: sum},
		},
		Notes: []string{
			"paper: rounds of control messages distribute end-point contact information and notify starts/completions",
			"measured: the same round structure; intra-container metadata exchange dominates the inherent cost",
		},
	}, nil
}

// Fig4 measures the time to increase a container, swept over the size of
// the increase, with the aprun launch cost reported separately exactly as
// the paper factors it out.
func Fig4(seed int64) (*Output, error) {
	sweeps := []int{1, 2, 4, 8, 16, 32}
	var rows []resizeSweep
	for _, n := range sweeps {
		rt, err := microRuntime(seed, 4, 48)
		if err != nil {
			return nil, err
		}
		n := n
		var row resizeSweep
		rt.Engine().Go("driver", func(p *sim.Proc) {
			p.Sleep(2 * sim.Second)
			nodes := rt.TakeSpare(n)
			start := p.Now()
			resp := rt.ShardManager(0).Increase(p, "bonds", nodes)
			if resp == nil {
				return
			}
			row = resizeSweep{n: n, total: p.Now() - start,
				launch: resp.Launch, intra: resp.Intra}
			row.mgr = row.total - row.launch - row.intra
		})
		rt.Engine().RunUntil(300 * sim.Second)
		rt.Shutdown()
		if row.n == 0 {
			return nil, fmt.Errorf("fig4: increase by %d did not complete", n)
		}
		rows = append(rows, row)
	}
	tab := &metrics.Table{Header: []string{"increase size", "intra-container (ms)", "manager msgs (ms)", "aprun (s, separate)"}}
	for _, r := range rows {
		tab.AddRow(r.n, r.intra.Milliseconds(), r.mgr.Milliseconds(), secs(r.launch))
	}
	notes := []string{
		"paper: communication within a container during a resize dominates (metadata exchange with new replicas); manager point-to-point messages nearly negligible; aprun (3-27s) dwarfs everything and is factored out",
	}
	last, first := rows[len(rows)-1], rows[0]
	notes = append(notes, fmt.Sprintf(
		"measured: intra-container grows %.2fms -> %.2fms across the sweep; manager msgs stay ~%.2fms; aprun %0.0f-%0.0fx larger",
		first.intra.Milliseconds(), last.intra.Milliseconds(), last.mgr.Milliseconds(),
		float64(first.launch)/float64(first.intra+first.mgr),
		float64(last.launch)/float64(last.intra+last.mgr)))
	return &Output{
		ID:       "fig4",
		Title:    "Time to Increase Container Size",
		Sections: []Section{{Name: "increase sweep", Table: tab}},
		Notes:    notes,
	}, nil
}

// fig5Runtime builds an *overloaded* pipeline so the decrease pays its
// real costs: the bonds replicas are busy mid-step when the decrease
// arrives (victim drain), and the upstream writer is mid-write against a
// nearly full queue (pause wait). Helper and CSym get cheap cost models so
// only Bonds is stressed.
func fig5Runtime(seed int64, bondsReplicas int) (*core.Runtime, error) {
	specs := core.DefaultSpecs()
	for i := range specs {
		switch specs[i].Name {
		case "helper":
			specs[i].Cost.Base = 200 * sim.Millisecond
		case "csym":
			specs[i].Cost.Base = 400 * sim.Millisecond
		}
	}
	// 64-node scale: bonds serial service = 48s * (1/4)^2 = 3s. Drive
	// arrivals 20% faster than the container sustains so it stays busy.
	period := sim.Time(float64(3*sim.Second) / float64(bondsReplicas) / 1.2)
	steps := int(150*sim.Second/period) + 1
	return core.Build(core.Config{
		SimNodes:     64,
		StagingNodes: 48,
		Specs:        specs,
		Sizes:        map[string]int{"helper": 4, "bonds": bondsReplicas, "csym": 4, "cna": 1},
		Steps:        steps,
		OutputPeriod: period,
		QueueCap:     4,
		CrackStep:    -1,
		Seed:         seed,
		Policy:       core.PolicyConfig{DisableManagement: true},
	})
}

// Fig5 measures the time to decrease a container under load: the
// dominant costs are waiting for the upstream DataTap writers to pause
// and draining the victims' in-flight steps (no timestep may be lost).
func Fig5(seed int64) (*Output, error) {
	sweeps := []int{1, 2, 4, 8, 16, 32}
	var rows []resizeSweep
	for _, n := range sweeps {
		rt, err := fig5Runtime(seed, n+2)
		if err != nil {
			return nil, err
		}
		n := n
		var row resizeSweep
		rt.Engine().Go("driver", func(p *sim.Proc) {
			p.Sleep(60 * sim.Second) // deep into the overloaded regime
			start := p.Now()
			resp := rt.ShardManager(0).Decrease(p, "bonds", n)
			if resp == nil {
				return
			}
			row = resizeSweep{n: n, total: p.Now() - start,
				pauseWait: resp.PauseWait, drain: resp.Drain}
		})
		rt.Engine().RunUntil(120 * sim.Second)
		rt.Shutdown()
		if row.n == 0 {
			return nil, fmt.Errorf("fig5: decrease by %d did not complete", n)
		}
		rows = append(rows, row)
	}
	tab := &metrics.Table{Header: []string{"decrease size", "total (s)", "writer pause wait (s)", "victim drain (s)"}}
	for _, r := range rows {
		tab.AddRow(r.n, secs(r.total), secs(r.pauseWait), secs(r.drain))
	}
	return &Output{
		ID:       "fig5",
		Title:    "Time to Decrease Container Size",
		Sections: []Section{{Name: "decrease sweep", Table: tab}},
		Notes: []string{
			"paper: the largest overhead source is waiting for the replicas' upstream DataTap writers to pause; the pause has little impact on flow because writes are asynchronous",
			"measured: pause+drain dominate the decrease and grow mildly with the number of replicas removed (the drain is the max over the victims' in-flight remainders)",
		},
	}, nil
}

// Fig6 sweeps the D2T transaction protocol over writer:reader core
// ratios on the RedSky machine model.
func Fig6(seed int64) (*Output, error) {
	type ratio struct{ w, r int }
	ratios := []ratio{{128, 1}, {256, 2}, {512, 4}, {1024, 8}, {2048, 16}}
	tab := &metrics.Table{Header: []string{"writers:readers", "time (ms)", "messages", "tree depth"}}
	var first, last sim.Time
	for i, rt := range ratios {
		eng := sim.NewEngine(seed)
		mc := cluster.RedSky()
		mach := cluster.New(eng, mc)
		tx, err := txn.New(eng, mach, txn.Config{Writers: rt.w, Readers: rt.r})
		if err != nil {
			return nil, err
		}
		var st txn.Stats
		eng.Go("driver", func(p *sim.Proc) { st = tx.Run(p) })
		eng.Run()
		if st.Outcome != txn.Committed {
			return nil, fmt.Errorf("fig6: %d:%d aborted", rt.w, rt.r)
		}
		tab.AddRow(fmt.Sprintf("%d:%d", rt.w, rt.r), st.Duration.Milliseconds(),
			st.Messages, st.Depth)
		if i == 0 {
			first = st.Duration
		}
		last = st.Duration
	}
	return &Output{
		ID:       "fig6",
		Title:    "Microbenchmark of Resilience Protocol Overhead",
		Sections: []Section{{Name: "writer:reader ratio sweep", Table: tab}},
		Notes: []string{
			"paper: the solution provides good scalability across writer:reader core ratios",
			fmt.Sprintf("measured: 16x participant growth costs %.2fx in transaction time (sub-coordination trees)",
				float64(last)/float64(first)),
		},
	}, nil
}
