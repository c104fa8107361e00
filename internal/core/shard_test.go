package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/shardmgr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shardedConfig is the Fig. 7 pipeline under the sharded control plane:
// 1 meta + shards primaries (+ standbys) on the first staging nodes, the
// 13 container nodes and the leftovers behind them.
func shardedConfig(shards, standbys, stagingNodes int) Config {
	return Config{
		SimNodes:      256,
		StagingNodes:  stagingNodes,
		Sizes:         DefaultSizes(13),
		Steps:         20,
		CrackStep:     -1,
		Seed:          42,
		Shards:        shards,
		ShardStandbys: standbys,
	}
}

// splitSeed returns a ShardSeed under which the four default stages do
// not all land in one shard and some consumer's upstream is in another
// shard (so cross-shard routing paths are exercised).
func splitSeed(t *testing.T, shards int) int64 {
	t.Helper()
	names := []string{"helper", "bonds", "csym", "cna"}
	pairs := [][2]string{{"helper", "bonds"}, {"bonds", "csym"}, {"bonds", "cna"}}
	for seed := int64(1); seed <= 200; seed++ {
		ring := shardmgr.NewRing(seed, shards)
		of := map[string]int{}
		for _, n := range names {
			of[n] = ring.Assign(n)
		}
		for _, p := range pairs {
			if of[p[0]] != of[p[1]] {
				return seed
			}
		}
	}
	t.Fatal("no ShardSeed splits the default stages across shards")
	return 0
}

func TestShardedRunCompletes(t *testing.T) {
	cfg := shardedConfig(2, 1, 24) // 5 manager nodes, 13 container, 6 spare
	cfg.ShardSeed = splitSeed(t, 2)
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 20 || res.Exits != 20 {
		t.Fatalf("sharded run damaged: emitted=%d exits=%d", res.Emitted, res.Exits)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("want 2 shard summaries, got %v", res.Shards)
	}
	nc := 0
	for _, s := range res.Shards {
		nc += s.Containers
		if s.Epoch < 1 {
			t.Fatalf("shard %d never had a fenced primary: %+v", s.Shard, s)
		}
	}
	if nc != len(rt.Containers()) {
		t.Fatalf("shard summaries cover %d containers, pipeline has %d", nc, len(rt.Containers()))
	}
	// Node conservation: the container region (staging minus the five
	// control-plane nodes) is exactly owned + spare.
	total := res.Spare
	for _, n := range res.FinalSizes {
		total += n
	}
	if want := cfg.StagingNodes - 5; total != want {
		t.Fatalf("nodes %d != %d (sizes %v spare %d)", total, want, res.FinalSizes, res.Spare)
	}
	// Scope isolation: every control round was issued by the manager of
	// the target's own shard.
	dir := rt.Directory()
	for _, r := range res.Rounds {
		if s := dir.ShardOf(r.Target); s != r.Shard {
			t.Fatalf("round %q on %s issued by shard %d, container belongs to shard %d",
				r.Kind, r.Target, r.Shard, s)
		}
	}
	if rt.Meta() == nil {
		t.Fatal("sharded run must have a meta-manager")
	}
}

func TestShardedRunDeterministic(t *testing.T) {
	cfg := shardedConfig(2, 1, 24)
	cfg.ShardSeed = splitSeed(t, 2)
	a := runScenario(t, cfg)
	b := runScenario(t, cfg)
	if fmt.Sprint(a.Actions) != fmt.Sprint(b.Actions) {
		t.Fatalf("actions differ between identical runs:\n%v\n%v", a.Actions, b.Actions)
	}
	if fmt.Sprint(a.Shards) != fmt.Sprint(b.Shards) {
		t.Fatalf("shard summaries differ:\n%v\n%v", a.Shards, b.Shards)
	}
}

// A GapNotice lands at the READER's shard manager, but the answering
// ResendReq round must be issued by the WRITER's shard manager — exactly
// once, not once per manager that hears about the gap.
func TestCrossShardGapRoutesToWriterShard(t *testing.T) {
	cfg := shardedConfig(2, 0, 24)
	cfg.ShardSeed = splitSeed(t, 2)
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a consumer whose upstream lives in another shard.
	var reader, writer *Container
	for _, c := range rt.Containers() {
		up := rt.upstreamOf(c)
		if up != nil && up.shard != c.shard {
			reader, writer = c, up
			break
		}
	}
	if reader == nil {
		t.Fatal("splitSeed produced no cross-shard consumer/upstream pair")
	}
	rt.eng.Go("test-gap", func(p *sim.Proc) {
		p.Sleep(30 * sim.Second)
		reader.noteGap(1)
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	resends := 0
	for _, r := range res.Rounds {
		if r.Kind != "resend" {
			continue
		}
		if r.Target != writer.Name() {
			t.Fatalf("resend round aimed at %q, want upstream %q", r.Target, writer.Name())
		}
		if r.Shard != writer.shard {
			t.Fatalf("resend issued by shard %d, want writer shard %d (reader shard %d)",
				r.Shard, writer.shard, reader.shard)
		}
		resends++
	}
	if resends == 0 {
		t.Fatalf("gap was never relayed into a resend round: %v", res.Rounds)
	}
	if resends > 1 {
		t.Fatalf("one gap produced %d resend rounds, want exactly 1", resends)
	}
}

// A shard whose pool runs dry mid-heal asks the meta-manager for nodes;
// the donor releases from its pool and the ledger records the transfer.
func TestCrossShardStealOnDryHeal(t *testing.T) {
	// 19 staging nodes: 5 control-plane + 13 container + 1 leftover. The
	// round-robin pools give shard 0 the single spare node and shard 1
	// nothing, so a crash in a shard-1 container forces a cross-shard
	// steal.
	cfg := shardedConfig(2, 1, 19)
	// Find a seed where some stage is managed by the dry shard 1.
	seed := int64(-1)
	var victimName string
	for s := int64(1); s <= 200 && seed < 0; s++ {
		ring := shardmgr.NewRing(s, 2)
		for _, n := range []string{"helper", "bonds", "csym", "cna"} {
			if ring.Assign(n) == 1 {
				seed, victimName = s, n
				break
			}
		}
	}
	if seed < 0 {
		t.Fatal("no seed maps a stage to shard 1")
	}
	cfg.ShardSeed = seed
	probe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := probe.Container(victimName)
	// Crash a non-manager replica (node 0 hosts the local manager; a
	// container without its manager cannot run the restart protocol).
	crashNode := victim.Nodes()[1].ID
	probe.Shutdown()

	cfg.Faults = &fault.Config{Crashes: []fault.Crash{{Node: crashNode, At: 60 * sim.Second}}}
	res := runScenario(t, cfg)
	if !hasAction(res, "steal-broker", "shard-1") {
		t.Fatalf("meta never brokered the steal: %v", res.Actions)
	}
	if !hasAction(res, "steal-out", "shard-1") {
		t.Fatalf("donor never released nodes: %v", res.Actions)
	}
	if !hasAction(res, "steal-in", "shard-1") {
		t.Fatalf("requester never adopted the stolen nodes: %v", res.Actions)
	}
	found := false
	for _, s := range res.Shards {
		if s.Shard == 1 && s.StolenIn > 0 {
			found = true
		}
		if s.Shard == 0 && s.StolenOut == 0 {
			t.Fatalf("donor shard 0 shows no StolenOut: %+v", res.Shards)
		}
	}
	if !found {
		t.Fatalf("ledger shows no steal into shard 1: %+v", res.Shards)
	}
}

// Killing a shard primary's node lets that shard's standby, watching its
// primary's heartbeats, promote itself after three silent intervals; the
// other shard is untouched. The failover action names "global-manager" on
// every shard, so the shards are told apart by their acting managers.
func TestShardStandbyPromotesItself(t *testing.T) {
	cfg := shardedConfig(2, 1, 24)
	cfg.ShardSeed = splitSeed(t, 2)
	probe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	primaryNode := probe.ShardManager(0).node
	probe.Shutdown()

	cfg.Faults = &fault.Config{Crashes: []fault.Crash{{Node: primaryNode, At: 60 * sim.Second}}}
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	var failovers []Action
	for _, a := range res.Actions {
		switch a.Kind {
		case "failover":
			failovers = append(failovers, a)
		case "promote":
			t.Fatalf("promote action on a run with one failover detector: %+v", a)
		}
	}
	// The last heartbeat left at 45s, so 105s is the first interval check
	// with more than three 15s intervals of silence; the action lands once
	// the rehome rounds finish.
	if len(failovers) != 1 || failovers[0].T < 105*sim.Second || failovers[0].T >= 106*sim.Second {
		t.Fatalf("want one failover at 105s, got %+v", failovers)
	}
	acting := rt.ShardManager(0)
	if acting != rt.shardStandby[0] {
		t.Fatal("shard 0's acting manager is not its standby")
	}
	if acting.InStandby() {
		t.Fatal("promoted standby still marked standby")
	}
	if acting.Epoch() <= 1 {
		t.Fatalf("takeover did not fence above the primary: epoch %d", acting.Epoch())
	}
	if m := rt.ShardManager(1); m != rt.shardMgrs[1] || m.Epoch() != 1 {
		t.Fatalf("healthy shard 1 disturbed: acting node %d epoch %d", m.Node(), m.Epoch())
	}
}

// Cutting the meta-manager off from every shard must not promote anyone:
// shard liveness is each standby's own watch over its primary, and the
// meta's silence is not a shard's.
func TestMetaPartitionPromotesNoStandby(t *testing.T) {
	cfg := shardedConfig(3, 1, 24)
	probe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metaNode := probe.Meta().Node()
	probe.Shutdown()

	cfg.Faults = &fault.Config{Partitions: []fault.Partition{{
		From: 60 * sim.Second, Until: 250 * sim.Second, Nodes: []int{metaNode}}}}
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Actions {
		if a.Kind == "promote" || a.Kind == "failover" {
			t.Fatalf("meta partition caused a takeover: %+v", a)
		}
	}
	for s := 0; s < 3; s++ {
		if m := rt.ShardManager(s); m != rt.shardMgrs[s] || m.Epoch() != 1 {
			t.Fatalf("shard %d moved: acting node %d epoch %d", s, m.Node(), m.Epoch())
		}
	}
}

// TestControlPlaneLayout pins the node arithmetic of the one build: with
// StagingNodes = ControlNodes + Σ sizes every container fits and the
// spare pool is empty, and one node fewer is refused — for a single
// shard (managers share the container region) and for sharded planes.
func TestControlPlaneLayout(t *testing.T) {
	sizes := DefaultSizes(13)
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	for _, shards := range []int{1, 2, 4} {
		for _, standbys := range []int{0, 1} {
			t.Run(fmt.Sprintf("S%d-k%d", shards, standbys), func(t *testing.T) {
				fit := ControlNodes(shards, standbys) + sum
				cfg := shardedConfig(shards, standbys, fit)
				rt, err := Build(cfg)
				if err != nil {
					t.Fatalf("%d staging nodes: %v", fit, err)
				}
				spare := 0
				for _, gm := range rt.shardPrimary {
					spare += gm.Spare()
				}
				if len(rt.shardMgrs) != shards*(1+standbys) || spare != 0 {
					t.Fatalf("%d managers, %d spare", len(rt.shardMgrs), spare)
				}
				if (rt.Meta() != nil) != (shards > 1) {
					t.Fatalf("meta-manager present = %v with %d shard(s)", rt.Meta() != nil, shards)
				}
				rt.Shutdown()
				cfg.StagingNodes = fit - 1
				if _, err := Build(cfg); err == nil {
					t.Fatalf("%d staging nodes accepted", fit-1)
				}
			})
		}
	}
}

// TestSpreadFailoverLayout pins the placement of managers and spare pools
// on the contiguous layout, and the pool a standby adopts when it takes
// over. One shard: the manager and standby sit on the first two region
// nodes, which the first container also holds. Two shards: the meta,
// primaries and standbys take nodes 256..260 and the region follows them.
// Either way the new acting manager rebuilds its pool in placement order,
// so it adopts the leftover nodes in the order the primary held them at
// build.
func TestSpreadFailoverLayout(t *testing.T) {
	ids := func(ns []*cluster.Node) string {
		var out []int
		for _, n := range ns {
			out = append(out, n.ID)
		}
		return fmt.Sprint(out)
	}
	oneShard := Config{StagingNodes: 16, Sizes: DefaultSizes(13), Steps: 12,
		ShardStandbys: 1, Seed: 7}
	oneShard.Policy.KillGMAt = 40 * sim.Second
	twoShards := shardedConfig(2, 1, 24)
	twoShards.ShardSeed = splitSeed(t, 2)
	twoShards.Faults = &fault.Config{Crashes: []fault.Crash{{Node: 257, At: 60 * sim.Second}}}
	for _, tc := range []struct {
		name             string
		cfg              Config
		primary, standby int
		spare            string
		adoptAt          sim.Time // after the takeover, before any resize
	}{
		{"one-shard", oneShard, 256, 257, "[269 270 271]", 91 * sim.Second},
		{"two-shards", twoShards, 257, 259, "[274 276 278]", 106 * sim.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			primary, standby := rt.shardMgrs[0], rt.shardStandby[0]
			if primary.Node() != tc.primary || standby.Node() != tc.standby {
				t.Fatalf("primary on %d, standby on %d; want %d and %d",
					primary.Node(), standby.Node(), tc.primary, tc.standby)
			}
			if got := ids(primary.SpareNodes()); got != tc.spare {
				t.Fatalf("spare at build %s, want %s", got, tc.spare)
			}
			var adopted string
			rt.eng.At(tc.adoptAt, func() {
				if rt.ShardManager(0) == standby {
					adopted = ids(standby.SpareNodes())
				}
			})
			if _, err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if rt.ShardManager(0) != standby || standby.Epoch() != 2 {
				t.Fatalf("acting manager on %d epoch %d; want the standby at epoch 2",
					rt.ShardManager(0).Node(), rt.ShardManager(0).Epoch())
			}
			if adopted != tc.spare {
				t.Fatalf("spare after takeover %s, want %s", adopted, tc.spare)
			}
		})
	}
}

// A crack seen in one shard reaches every shard: the observing manager
// relays it to the meta-manager (relayCrack), which forwards it to every
// shard's acting manager and standby (broadcastCrack). The layout puts
// CNA, the crack-activated stage, alone in a shard other than 0 that no
// crack frame reaches, so its activation can only come through the relay.
func TestCrackRelayReachesEveryShard(t *testing.T) {
	const shards = 3
	seed, cnaShard := int64(-1), -1
	for s := int64(1); s <= 500 && seed < 0; s++ {
		ring := shardmgr.NewRing(s, shards)
		cna := ring.Assign("cna")
		alone := cna != 0
		for _, n := range []string{"helper", "bonds", "csym"} {
			alone = alone && ring.Assign(n) != cna
		}
		if alone {
			seed, cnaShard = s, cna
		}
	}
	if seed < 0 {
		t.Fatal("no ShardSeed puts cna alone in a shard other than 0")
	}
	cfg := shardedConfig(shards, 1, 24)
	cfg.ShardSeed = seed
	cfg.CrackStep = 5
	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s, gm := range rt.shardPrimary {
		if !gm.branchDone {
			t.Errorf("shard %d never ran its branch activation", s)
		}
	}
	for _, gm := range rt.shardMgrs {
		if !gm.crackSeen {
			t.Errorf("shard %d manager on node %d never heard of the crack", gm.shard, gm.node)
		}
	}
	var activations []RoundRecord
	for _, r := range res.Rounds {
		if r.Kind == "activate" {
			activations = append(activations, r)
		}
	}
	if len(activations) != 1 || activations[0].Target != "cna" || activations[0].Shard != cnaShard {
		t.Fatalf("activate rounds %+v, want one for cna from shard %d", activations, cnaShard)
	}
	if !rt.Container("cna").Active() {
		t.Fatal("cna never became active")
	}
}

// A shard whose pool runs dry when no other shard has a spare node gets
// an empty StealGrant from the meta-manager, which clears its
// pending-steal latch: the next dry heal asks again. Both requests are
// answered dry, so no shard adopts or releases a node.
func TestDryStealClearsLatch(t *testing.T) {
	// 18 staging nodes: 5 control-plane + 13 container, no spare in any
	// shard.
	cfg := shardedConfig(2, 1, 18)
	cfg.Trace = &trace.Config{RingCap: 1 << 16}
	probe, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The widest container: two of its replica nodes crash (node 0 hosts
	// the local manager, which runs the restart protocol).
	var victim *Container
	for _, c := range probe.Containers() {
		if victim == nil || len(c.Nodes()) > len(victim.Nodes()) {
			victim = c
		}
	}
	if len(victim.Nodes()) < 3 {
		t.Fatalf("widest container %s has %d nodes, want 3 or more", victim.Name(), len(victim.Nodes()))
	}
	name, shard := victim.Name(), victim.shard
	cfg.Faults = &fault.Config{Crashes: []fault.Crash{
		{Node: victim.Nodes()[1].ID, At: 60 * sim.Second},
		{Node: victim.Nodes()[2].ID, At: 90 * sim.Second},
	}}
	probe.Shutdown()

	rt, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	dry := 0
	for _, r := range rt.Tracer().Records() {
		if r.Name == "steal-dry" && r.Attr("shard") == fmt.Sprint(shard) {
			dry++
		}
	}
	if dry != 2 {
		t.Fatalf("%d dry steals for shard %d, want 2 (one per heal): the latch did not clear", dry, shard)
	}
	if gm := rt.shardPrimary[shard]; gm.stealPending {
		t.Fatalf("shard %d still has a steal pending after two dry answers", shard)
	}
	for _, kind := range []string{"steal-broker", "steal-out", "steal-in"} {
		for _, a := range res.Actions {
			if a.Kind == kind {
				t.Fatalf("dry run recorded a %s action: %+v", kind, a)
			}
		}
	}
	if !hasAction(res, "degrade", name) {
		t.Fatalf("%s never degraded after its dry heal: %v", name, res.Actions)
	}
}
