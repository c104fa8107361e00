// Package cluster models the high-end machine the paper's experiments run
// on: compute nodes with a per-core compute rate, an interconnect with
// per-node NIC serialization and configurable topology, batch-style
// allocation into simulation and staging partitions, and an aprun-like
// launcher whose cost matches the 3–27 s range the paper reports on Cray
// platforms.
//
// All timing flows through the sim kernel, so experiments are deterministic
// and fast regardless of the virtual scales involved.
package cluster

import "repro/internal/sim"

// Config describes a machine. The defaults approximate NERSC's Franklin
// Cray XT4 (quad-core 2.3 GHz nodes, Portals/SeaStar interconnect) at the
// fidelity the paper's figures depend on: per-node compute rate, NIC
// bandwidth, and link latency.
type Config struct {
	// Nodes is the total node count of the machine.
	Nodes int
	// CoresPerNode is the number of cores on each node (Franklin: 4).
	CoresPerNode int
	// CoreGFlops is the per-core compute rate used by analytic cost
	// models, in GFLOP/s.
	CoreGFlops float64
	// LinkLatency is the one-way message latency between any two nodes
	// (before topology hop scaling).
	LinkLatency sim.Time
	// LinkBandwidthMBps is the per-NIC injection/ejection bandwidth in
	// MiB/s.
	LinkBandwidthMBps float64
	// Topology computes hop counts between nodes; nil means uniform
	// (single-hop) distance.
	Topology Topology
	// PerHopLatency is added per extra hop beyond the first when a
	// topology is configured.
	PerHopLatency sim.Time
	// LaunchMin/LaunchMax bound the aprun-like launch cost. The paper
	// observed 3–27 s on Franklin.
	LaunchMin, LaunchMax sim.Time
}

// Franklin returns a configuration approximating the paper's primary
// testbed: NERSC Franklin, a 9,572-node Cray XT4 (38,288 cores, quad-core
// AMD Budapest 2.3 GHz, Portals network).
func Franklin() Config {
	return Config{
		Nodes:             9572,
		CoresPerNode:      4,
		CoreGFlops:        9.2, // 2.3 GHz x 4 FLOP/cycle
		LinkLatency:       8 * sim.Microsecond,
		LinkBandwidthMBps: 1600,
		LaunchMin:         3 * sim.Second,
		LaunchMax:         27 * sim.Second,
	}
}

// RedSky returns a configuration approximating Sandia's RedSky capacity
// cluster used for the transaction experiments: 2,823 Sun X6275 nodes,
// 8-core Xeon 5570, 12 GB RAM, QDR InfiniBand in a 3-D toroidal mesh.
func RedSky() Config {
	return Config{
		Nodes:             2823,
		CoresPerNode:      8,
		CoreGFlops:        11.7,
		LinkLatency:       2 * sim.Microsecond,
		LinkBandwidthMBps: 3200,
		Topology:          NewTorus3D(15, 15, 13),
		PerHopLatency:     100 * sim.Nanosecond,
		LaunchMin:         1 * sim.Second,
		LaunchMax:         5 * sim.Second,
	}
}

// withDefaults fills zero fields with small-but-sane values so tests can
// construct partial configs.
func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 64
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 4
	}
	if c.CoreGFlops <= 0 {
		c.CoreGFlops = 9.2
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 8 * sim.Microsecond
	}
	if c.LinkBandwidthMBps <= 0 {
		c.LinkBandwidthMBps = 1600
	}
	if c.LaunchMin <= 0 {
		c.LaunchMin = 3 * sim.Second
	}
	if c.LaunchMax < c.LaunchMin {
		c.LaunchMax = c.LaunchMin
	}
	return c
}
