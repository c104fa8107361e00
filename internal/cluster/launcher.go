package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Launcher models the batch-style application launcher ('aprun' on the
// paper's Cray platforms). Two properties matter to the container work:
//
//  1. launches are expensive and highly variable — the paper observed
//     3–27 s, "completely dwarfing all other measurement" in the resize
//     microbenchmarks, and is careful to factor that cost out of Fig. 4;
//  2. processes launched by separate aprun invocations cannot be
//     coalesced onto one node, which forces whole-node granularity for
//     container resizes.
type Launcher struct {
	m *Machine
	// seq numbers launches for job naming.
	seq int
}

// NewLauncher returns a launcher for the machine.
func NewLauncher(m *Machine) *Launcher {
	return &Launcher{m: m}
}

// Job is a launched executable instance occupying whole nodes.
type Job struct {
	Name    string
	Nodes   []*Node
	Started sim.Time
	// LaunchCost is the simulated aprun time this launch consumed;
	// experiments report it separately, as the paper does.
	LaunchCost sim.Time
}

// Launch starts an executable on the given nodes, blocking p for the
// launcher's cost (uniform in [LaunchMin, LaunchMax], matching the
// observed aprun range). Nodes must all be distinct.
func (l *Launcher) Launch(p *sim.Proc, name string, nodes []*Node) (*Job, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: launch %q with no nodes", name)
	}
	seen := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		if seen[n.ID] {
			return nil, fmt.Errorf("cluster: launch %q lists node %d twice", name, n.ID)
		}
		seen[n.ID] = true
	}
	cost := l.m.eng.Rand().Uniform(l.m.cfg.LaunchMin, l.m.cfg.LaunchMax)
	p.Sleep(cost)
	l.seq++
	return &Job{
		Name:       fmt.Sprintf("%s.%d", name, l.seq),
		Nodes:      nodes,
		Started:    l.m.eng.Now(),
		LaunchCost: cost,
	}, nil
}
