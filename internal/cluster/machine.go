package cluster

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Machine is a simulated high-end machine: a set of nodes joined by an
// interconnect, with batch-style allocation.
type Machine struct {
	eng    *sim.Engine
	cfg    Config
	nodes  []Node // one slab: every node, indexed by ID
	free   []bool // free[i] reports whether nodes[i] is unallocated
	nfree  int
	stats  NetStats
	faults *fault.Schedule // nil = no faults
}

// Node is one machine node. Its tx and rx ports are sim resources that
// serialize the NIC, held by value so that a node costs no allocation of
// its own.
type Node struct {
	ID   int
	tx   sim.Resource
	rx   sim.Resource
	down bool
}

// NetStats aggregates interconnect activity for experiment reporting.
type NetStats struct {
	Messages  int64
	Bytes     int64
	TotalTime sim.Time // summed per-message latency
}

// New builds a machine from cfg under the given engine.
func New(eng *sim.Engine, cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{eng: eng, cfg: cfg}
	m.nodes = make([]Node, cfg.Nodes)
	m.free = make([]bool, cfg.Nodes)
	for i := range m.nodes {
		m.nodes[i] = Node{
			ID: i,
			tx: sim.MakeResource(eng, 1),
			rx: sim.MakeResource(eng, 1),
		}
		m.free[i] = true
	}
	m.nfree = cfg.Nodes
	return m
}

// Config returns the machine configuration (after default filling).
func (m *Machine) Config() Config { return m.cfg }

// SetFaults attaches a fault schedule. The machine registers its own crash
// handler first, so when a crash fires the node is already marked down (and
// its NIC ports drained) before higher-layer handlers run.
func (m *Machine) SetFaults(s *fault.Schedule) {
	m.faults = s
	s.OnCrash(func(id int) {
		if id < 0 || id >= len(m.nodes) {
			return
		}
		n := &m.nodes[id]
		n.down = true
		// Unwedge anything parked on the dead node's NIC: grow the ports
		// effectively without bound so blocked transfers complete (their
		// delivery checks fail afterwards) instead of parking forever.
		n.tx.Grow(1 << 40)
		n.rx.Grow(1 << 40)
	})
}

// Faults returns the attached fault schedule (nil when none; all
// fault.Schedule accessors are nil-safe).
func (m *Machine) Faults() *fault.Schedule { return m.faults }

// Stats returns a snapshot of interconnect statistics.
func (m *Machine) Stats() NetStats { return m.stats }

// Up reports whether the node is alive (not crashed by the fault schedule).
func (n *Node) Up() bool { return !n.down }

// Allocation is a batch allocation of whole nodes, as a scheduler would
// grant for a job. The paper's setting allocates once for the entire run
// and the user partitions the nodes between simulation and staging.
type Allocation struct {
	nodes []*Node
}

// Allocate reserves n nodes (lowest-numbered free nodes first, mirroring
// contiguous batch placement). It returns an error if the machine lacks
// free nodes.
func (m *Machine) Allocate(n int) (*Allocation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: allocation size %d must be positive", n)
	}
	if n > m.nfree {
		return nil, fmt.Errorf("cluster: requested %d nodes, only %d free", n, m.nfree)
	}
	a := &Allocation{nodes: make([]*Node, 0, n)}
	for i := 0; i < len(m.nodes) && len(a.nodes) < n; i++ {
		if m.free[i] {
			m.free[i] = false
			a.nodes = append(a.nodes, &m.nodes[i])
		}
	}
	m.nfree -= n
	return a, nil
}

// Nodes returns the allocated nodes (shared slice; do not mutate).
func (a *Allocation) Nodes() []*Node { return a.nodes }

// Split carves the allocation into two disjoint sub-allocations, the
// first n nodes and the rest, used to partition a job's nodes into
// simulation and staging areas. Both view the parent's nodes.
func (a *Allocation) Split(n int) (*Allocation, *Allocation, error) {
	if n < 0 || n > len(a.nodes) {
		return nil, nil, fmt.Errorf("cluster: split %d out of range 0..%d", n, len(a.nodes))
	}
	first := &Allocation{nodes: a.nodes[:n:n]}
	second := &Allocation{nodes: a.nodes[n:]}
	return first, second, nil
}
