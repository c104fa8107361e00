package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testMachine(nodes int) (*sim.Engine, *Machine) {
	eng := sim.NewEngine(7)
	cfg := Franklin()
	cfg.Nodes = nodes
	return eng, New(eng, cfg)
}

func TestAllocateAndFree(t *testing.T) {
	_, m := testMachine(16)
	a, err := m.Allocate(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes()) != 10 || m.nfree != 6 {
		t.Fatalf("size=%d free=%d", len(a.Nodes()), m.nfree)
	}
	if _, err := m.Allocate(6); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(1); err == nil {
		t.Fatal("over-allocation should fail")
	}
	if m.nfree != 0 {
		t.Fatalf("free=%d, want 0", m.nfree)
	}
}

func TestAllocateDisjointNodes(t *testing.T) {
	_, m := testMachine(8)
	a, _ := m.Allocate(4)
	b, _ := m.Allocate(4)
	seen := map[int]bool{}
	for _, n := range append(a.Nodes(), b.Nodes()...) {
		if seen[n.ID] {
			t.Fatalf("node %d allocated twice", n.ID)
		}
		seen[n.ID] = true
	}
}

func TestAllocateRejectsNonPositive(t *testing.T) {
	_, m := testMachine(4)
	if _, err := m.Allocate(0); err == nil {
		t.Fatal("Allocate(0) should fail")
	}
	if _, err := m.Allocate(-3); err == nil {
		t.Fatal("Allocate(-3) should fail")
	}
}

func TestSplitPartition(t *testing.T) {
	_, m := testMachine(32)
	a, _ := m.Allocate(32)
	simPart, staging, err := a.Split(28)
	if err != nil {
		t.Fatal(err)
	}
	if len(simPart.Nodes()) != 28 || len(staging.Nodes()) != 4 {
		t.Fatalf("split sizes %d/%d", len(simPart.Nodes()), len(staging.Nodes()))
	}
	if _, _, err := a.Split(33); err == nil {
		t.Fatal("oversized split should fail")
	}
	// Sub-allocations view disjoint node sets.
	for _, n := range simPart.Nodes() {
		for _, s := range staging.Nodes() {
			if n.ID == s.ID {
				t.Fatal("split parts overlap")
			}
		}
	}
}

// Property: any sequence of allocations conserves nodes, and an
// allocation fails only when too few nodes are free.
func TestAllocationConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		_, m := testMachine(64)
		total := 0
		for _, s := range sizes {
			n := int(s%16) + 1
			if a, err := m.Allocate(n); err == nil {
				if len(a.Nodes()) != n {
					return false
				}
				total += n
			} else if n <= m.nfree {
				return false // spurious failure
			}
			if m.nfree != 64-total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSendTiming(t *testing.T) {
	eng, m := testMachine(4)
	var elapsed sim.Time
	size := int64(16 * 1024 * 1024) // 16 MiB
	eng.Go("sender", func(p *sim.Proc) {
		start := p.Now()
		m.Send(p, 0, 1, size)
		elapsed = p.Now() - start
	})
	eng.Run()
	// Store-and-forward: two bandwidth terms + latency.
	want := 2*m.transferTime(size) + m.cfg.LinkLatency
	if elapsed != want {
		t.Fatalf("elapsed %v, want %v", elapsed, want)
	}
	st := m.Stats()
	if st.Messages != 1 || st.Bytes != size {
		t.Fatalf("stats %+v", st)
	}
}

func TestIntraNodeSendIsCheap(t *testing.T) {
	eng, m := testMachine(4)
	var local, remote sim.Time
	size := int64(8 * 1024 * 1024)
	eng.Go("x", func(p *sim.Proc) {
		s := p.Now()
		m.Send(p, 2, 2, size)
		local = p.Now() - s
		s = p.Now()
		m.Send(p, 2, 3, size)
		remote = p.Now() - s
	})
	eng.Run()
	if local >= remote {
		t.Fatalf("intra-node %v should beat inter-node %v", local, remote)
	}
}

func TestNICContentionSerializes(t *testing.T) {
	eng, m := testMachine(4)
	size := int64(64 * 1024 * 1024)
	var done []sim.Time
	// Two senders share node 0's tx port: second must wait.
	for i := 0; i < 2; i++ {
		eng.Go("s", func(p *sim.Proc) {
			m.Send(p, 0, 1+eng.Rand().Intn(1), size)
			done = append(done, p.Now())
		})
	}
	eng.Run()
	single := 2*m.transferTime(size) + m.cfg.LinkLatency
	if done[1] < single+m.transferTime(size) {
		t.Fatalf("no serialization evident: %v vs single %v", done, single)
	}
}

func TestRDMAGetCostsMoreThanSendByRequest(t *testing.T) {
	eng, m := testMachine(4)
	size := int64(4 * 1024 * 1024)
	var sendT, getT sim.Time
	eng.Go("x", func(p *sim.Proc) {
		s := p.Now()
		m.Send(p, 0, 1, size)
		sendT = p.Now() - s
		s = p.Now()
		m.RDMAGet(p, 1, 0, size)
		getT = p.Now() - s
	})
	eng.Run()
	if getT <= sendT {
		t.Fatalf("RDMAGet %v should include request overhead above Send %v", getT, sendT)
	}
}

func TestLauncherCostInRange(t *testing.T) {
	eng, m := testMachine(8)
	l := NewLauncher(m)
	a, _ := m.Allocate(4)
	var jobs []*Job
	eng.Go("launch", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			j, err := l.Launch(p, "analytics", a.Nodes())
			if err != nil {
				t.Error(err)
				return
			}
			jobs = append(jobs, j)
		}
	})
	eng.Run()
	if len(jobs) != 20 {
		t.Fatalf("launched %d", len(jobs))
	}
	varied := false
	for i, j := range jobs {
		if j.LaunchCost < 3*sim.Second || j.LaunchCost > 27*sim.Second {
			t.Fatalf("launch cost %v outside paper's 3-27s range", j.LaunchCost)
		}
		if i > 0 && j.LaunchCost != jobs[0].LaunchCost {
			varied = true
		}
	}
	if !varied {
		t.Fatal("launch costs should vary")
	}
}

func TestLauncherRejectsBadNodeLists(t *testing.T) {
	eng, m := testMachine(4)
	l := NewLauncher(m)
	eng.Go("launch", func(p *sim.Proc) {
		if _, err := l.Launch(p, "x", nil); err == nil {
			t.Error("empty node list should fail")
		}
		n := &m.nodes[0]
		if _, err := l.Launch(p, "x", []*Node{n, n}); err == nil {
			t.Error("duplicate node should fail")
		}
	})
	eng.Run()
}

func TestTorusDistance(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	if tor.Size() != 64 {
		t.Fatalf("size %d", tor.Size())
	}
	if tor.Hops(0, 0) != 0 {
		t.Fatal("self distance nonzero")
	}
	// Node 1 is (1,0,0): one hop.
	if tor.Hops(0, 1) != 1 {
		t.Fatalf("hops(0,1) = %d", tor.Hops(0, 1))
	}
	// Wraparound: (3,0,0) is 1 hop from (0,0,0) on a length-4 ring.
	if tor.Hops(0, 3) != 1 {
		t.Fatalf("hops(0,3) = %d", tor.Hops(0, 3))
	}
	// (2,2,2) from origin: 2+2+2.
	id := 2 + 2*4 + 2*16
	if tor.Hops(0, id) != 6 {
		t.Fatalf("hops = %d, want 6", tor.Hops(0, id))
	}
}

// Property: torus distance is symmetric, nonnegative, zero iff equal
// (within one period), and respects the triangle inequality.
func TestTorusMetricProperty(t *testing.T) {
	tor := NewTorus3D(5, 3, 4)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%tor.Size(), int(b)%tor.Size(), int(c)%tor.Size()
		dxy := tor.Hops(x, y)
		if dxy != tor.Hops(y, x) || dxy < 0 {
			return false
		}
		if (x == y) != (dxy == 0) {
			return false
		}
		return tor.Hops(x, z) <= dxy+tor.Hops(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyAffectsLatency(t *testing.T) {
	eng := sim.NewEngine(7)
	cfg := Franklin()
	cfg.Nodes = 64
	cfg.Topology = NewTorus3D(4, 4, 4)
	cfg.PerHopLatency = sim.Millisecond
	m := New(eng, cfg)
	near := m.latencyBetween(0, 1) // 1 hop
	far := m.latencyBetween(0, 42) // (2,2,2): 6 hops
	if far <= near {
		t.Fatalf("far %v should exceed near %v", far, near)
	}
	if m.latencyBetween(5, 5) != 0 {
		t.Fatal("self latency should be zero")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Nodes <= 0 || c.CoresPerNode <= 0 || c.LaunchMax < c.LaunchMin {
		t.Fatalf("bad defaults: %+v", c)
	}
	fr := Franklin()
	if fr.Nodes != 9572 || fr.CoresPerNode != 4 {
		t.Fatalf("Franklin config drifted: %+v", fr)
	}
	rs := RedSky()
	if rs.Nodes != 2823 || rs.CoresPerNode != 8 || rs.Topology == nil {
		t.Fatalf("RedSky config drifted: %+v", rs)
	}
}
