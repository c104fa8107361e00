package monitor

import (
	"repro/internal/evpath"
	"repro/internal/sim"
)

// Probe implements the flexible monitoring knobs of §III-E: how often
// samples are captured and how much pre-processing happens at the source
// before anything crosses the machine. Managers tune probes at runtime to
// trade diagnostic resolution against perturbation of the application.
// With neither knob set it forwards every sample as its own event.
type Probe struct {
	// Out receives the (possibly aggregated) samples.
	Out *evpath.Stone
	// Every forwards only one sample per period (0 = all samples).
	Every sim.Time
	// AggregateN, when > 1, replaces each group of N samples with one
	// averaged sample instead of dropping the intermediate ones.
	AggregateN int

	lastSent sim.Time
	buf      []Sample
	seen     int64
	sent     int64
}

// NewProbe returns a pass-through probe into out.
func NewProbe(out *evpath.Stone) *Probe { return &Probe{Out: out} }

// Seen returns how many samples the probe ingested.
func (pr *Probe) Seen() int64 { return pr.seen }

// Sent returns how many events the probe forwarded — the perturbation
// the monitoring inflicts on the network.
func (pr *Probe) Sent() int64 { return pr.sent }

// Offer ingests one sample, forwarding according to the probe's current
// configuration.
func (pr *Probe) Offer(s Sample) {
	pr.seen++
	if pr.AggregateN > 1 {
		pr.buf = append(pr.buf, s)
		if len(pr.buf) < pr.AggregateN {
			return
		}
		s = averageSamples(pr.buf)
		pr.buf = pr.buf[:0]
	}
	if pr.Every > 0 && pr.lastSent > 0 && s.At-pr.lastSent < pr.Every {
		return
	}
	pr.lastSent = s.At
	pr.sent++
	pr.Out.Submit(Event(s))
}

// averageSamples reduces a batch to one mean sample stamped at the batch
// end.
func averageSamples(batch []Sample) Sample {
	out := batch[len(batch)-1]
	var lat, svc sim.Time
	q := 0
	for _, s := range batch {
		lat += s.Latency
		svc += s.Service
		q += s.QueueLen
	}
	n := sim.Time(len(batch))
	out.Latency = lat / n
	out.Service = svc / n
	out.QueueLen = q / len(batch)
	return out
}
