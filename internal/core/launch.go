package core

import (
	"fmt"

	"repro/internal/datatap"
	"repro/internal/sim"
)

// AddTap attaches an observer channel to a container via a control round.
func (gm *GlobalManager) AddTap(p *sim.Proc, target string, ch *datatap.Channel) bool {
	resp, _ := gm.call(p, target, &AddTapReq{Ch: ch}).(*AddTapResp)
	return resp != nil
}

// LaunchContainer creates and starts a new container mid-run — the
// fine-grained launch capability the paper's introduction calls out ("a
// user can also launch a visualization code when needed"). The new
// component observes a *duplicate* of the named upstream container's
// output (a tap), so the existing pipeline keeps every one of its steps.
//
// The container takes `nodes` staging nodes from the spare pool, pays the
// aprun-style launch cost, and is managed like any other container from
// then on. Must be called from a simulated process (interactive user
// input is modeled as a process issuing the request mid-run), on a
// single-shard run.
func (gm *GlobalManager) LaunchContainer(p *sim.Proc, spec ComponentSpec, nodes int, upstream string) (*Container, error) {
	if gm.rt.Sharded() {
		// A sharded manager's scope and the shard directory are fixed at
		// build; a container launched here would sit outside both.
		return nil, fmt.Errorf("core: mid-run launch needs a single-shard run")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, exists := gm.rt.byName[spec.Name]; exists {
		return nil, fmt.Errorf("core: container %q already exists", spec.Name)
	}
	up, ok := gm.rt.byName[upstream]
	if !ok {
		return nil, fmt.Errorf("core: unknown upstream container %q", upstream)
	}
	if up.State() != StateOnline {
		return nil, fmt.Errorf("core: upstream %q is offline", upstream)
	}
	if nodes <= 0 {
		nodes = 1
	}
	if nodes > len(gm.spare) {
		return nil, fmt.Errorf("core: mid-run launch needs %d nodes, %d spare", nodes, len(gm.spare))
	}
	grant := gm.spare[:nodes]
	gm.spare = gm.spare[nodes:]

	// A bounded observer channel: if the new component falls behind, its
	// tap drops steps rather than stalling the pipeline.
	tap := datatap.NewChannel(gm.rt.eng, gm.rt.mach,
		"ch.tap."+spec.Name,
		datatap.Config{QueueCap: gm.rt.cfg.QueueCap,
			WriterBufBytes: writerBufBytes, HomeNode: grant[0].ID})

	c, err := gm.rt.newContainer(spec, grant, tap, nil, "")
	if err != nil {
		gm.spare = append(grant, gm.spare...)
		return nil, err
	}
	c.observer = true
	// The mid-run launch pays the full aprun + metadata-exchange cost
	// (unlike job-startup deployment).
	job, err := gm.rt.launcher.Launch(p, spec.Name, grant)
	if err != nil {
		gm.spare = append(grant, gm.spare...)
		return nil, err
	}
	c.exchangeMetadata(p, grant, nil)
	gm.rt.containers = append(gm.rt.containers, c)
	gm.rt.byName[spec.Name] = c
	gm.rt.channels = append(gm.rt.channels, tap)
	c.start()
	gm.connect(c)
	if !gm.AddTap(p, upstream, tap) {
		return nil, fmt.Errorf("core: tap attachment to %q failed", upstream)
	}
	gm.record(p, Action{T: p.Now(), Kind: "launch", Target: spec.Name, N: nodes,
		Detail: fmt.Sprintf("mid-run, tapping %s (aprun %s)", upstream, job.LaunchCost)})
	return c, nil
}
