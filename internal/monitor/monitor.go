// Package monitor implements the lightweight online monitoring the
// container runtime is driven by (paper §III-E): per-container latency
// samples captured at container boundaries, carried over evpath overlays
// to the global manager, aggregated into sliding windows, and reduced to
// the bottleneck diagnosis ("the pipeline's container with the longest
// average latency") and queue-growth trends that trigger management.
package monitor

import (
	"repro/internal/evpath"
	"repro/internal/sim"
)

// Sample is one container-boundary measurement for one timestep.
type Sample struct {
	// Container names the reporting container.
	Container string
	// Step is the application timestep the sample belongs to.
	Step int64
	// Latency is the time from the step's data entering the container
	// (descriptor arrival at its input channel) to the step exiting.
	Latency sim.Time
	// Service is the pure compute portion of the latency.
	Service sim.Time
	// QueueLen is the input queue backlog observed at exit.
	QueueLen int
	// At is when the sample was taken.
	At sim.Time
}

// SampleEventType tags monitoring events on evpath overlays.
const SampleEventType = "monitor.sample"

// sampleWireBytes approximates the encoded size of one sample.
const sampleWireBytes = 96

// Event wraps a sample for overlay transport.
func Event(s Sample) *evpath.Event {
	return &evpath.Event{Type: SampleEventType, Size: sampleWireBytes, Data: s}
}

// Window is a sliding window of samples for one container.
type Window struct {
	// Span bounds how far back samples are kept.
	Span sim.Time
	buf  []Sample
}

// Add appends a sample and evicts ones older than Span.
func (w *Window) Add(s Sample) {
	w.buf = append(w.buf, s)
	if w.Span <= 0 {
		return
	}
	cut := s.At - w.Span
	i := 0
	for i < len(w.buf) && w.buf[i].At < cut {
		i++
	}
	if i > 0 {
		w.buf = append(w.buf[:0], w.buf[i:]...)
	}
}

// Len returns the number of retained samples.
func (w *Window) Len() int { return len(w.buf) }

// Samples returns the retained samples (shared slice; do not mutate).
func (w *Window) Samples() []Sample { return w.buf }

// AvgLatency returns the mean latency over the window (0 if empty).
func (w *Window) AvgLatency() sim.Time {
	if len(w.buf) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range w.buf {
		sum += s.Latency
	}
	return sum / sim.Time(len(w.buf))
}

// LastQueueLen returns the most recent queue observation.
func (w *Window) LastQueueLen() int {
	if len(w.buf) == 0 {
		return 0
	}
	return w.buf[len(w.buf)-1].QueueLen
}

// QueueTrend estimates queue growth in items per step across the window
// (first vs last observation). Positive means the backlog is building —
// the early overflow warning the Fig. 9 policy acts on.
func (w *Window) QueueTrend() float64 {
	if len(w.buf) < 2 {
		return 0
	}
	first, last := w.buf[0], w.buf[len(w.buf)-1]
	steps := float64(len(w.buf) - 1)
	return float64(last.QueueLen-first.QueueLen) / steps
}

// Aggregator maintains per-container windows, fed one sample at a time
// by Ingest.
type Aggregator struct {
	Span    sim.Time
	windows map[string]*Window
	order   []string
	total   int64
}

// NewAggregator returns an aggregator with the given window span
// (0 = unbounded windows).
func NewAggregator(span sim.Time) *Aggregator {
	return &Aggregator{Span: span, windows: make(map[string]*Window)}
}

// Ingest adds one sample.
func (a *Aggregator) Ingest(s Sample) {
	w, ok := a.windows[s.Container]
	if !ok {
		w = &Window{Span: a.Span}
		a.windows[s.Container] = w
		a.order = append(a.order, s.Container)
	}
	w.Add(s)
	a.total++
}

// Window returns the named container's window (nil if unseen).
func (a *Aggregator) Window(container string) *Window { return a.windows[container] }

// Containers returns the seen container names in first-seen order.
func (a *Aggregator) Containers() []string { return append([]string(nil), a.order...) }

// TotalSamples returns the ingested sample count.
func (a *Aggregator) TotalSamples() int64 { return a.total }

// Bottleneck returns the container with the longest average latency over
// its window, among the given candidates (all seen containers if nil).
// ok is false when no candidate has samples.
func (a *Aggregator) Bottleneck(candidates []string) (name string, avg sim.Time, ok bool) {
	ranked := a.Ranked(candidates)
	if len(ranked) == 0 {
		return "", 0, false
	}
	return ranked[0], a.windows[ranked[0]].AvgLatency(), true
}

// Ranked returns the candidates (all seen containers if nil) that have
// samples, ordered by descending average latency — the global manager
// works down this list until it finds a container it can actually help.
func (a *Aggregator) Ranked(candidates []string) []string {
	if candidates == nil {
		candidates = a.order
	}
	var out []string
	for _, c := range candidates {
		if w := a.windows[c]; w != nil && w.Len() > 0 {
			out = append(out, c)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && a.windows[out[j]].AvgLatency() > a.windows[out[j-1]].AvgLatency(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
