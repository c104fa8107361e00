package trace

import "repro/internal/sim"

// Kernel adapts the Recorder to sim.Tracer so the engine's event loop can
// be traced: one "sim/event" instant per executed event, named by the
// event's debug label. High volume — the flight ring keeps it bounded —
// and off unless Config.Kernel is set.
type Kernel struct {
	r *Recorder
}

// NewKernel returns a sim.Tracer feeding r, or nil when kernel tracing is
// disabled (the engine treats a nil tracer as "off").
func NewKernel(r *Recorder) *Kernel {
	if r == nil || !r.cfg.Kernel {
		return nil
	}
	return &Kernel{r: r}
}

// Event implements sim.Tracer. It runs once per executed engine event —
// the hottest instrumentation point in the repository.
func (k *Kernel) Event(at sim.Time, what string) {
	if k == nil {
		return
	}
	k.r.commit(&entry{
		id:      0, // kernel instants are not causally addressable
		cat:     "sim",
		name:    what,
		node:    -1,
		step:    -1,
		start:   at,
		end:     at,
		instant: true,
	})
}
