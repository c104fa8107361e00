package main

import (
	"strings"
	"time"

	"repro/internal/sim"
)

// counter indexes one deterministic work count of an op. Every count is a
// pure function of the op's inputs, so the determinism self-check
// compares them exactly between processes, between repeats and between
// the untraced and traced runs.
type counter int

const (
	cRounds counter = iota
	cActions
	cSuspects
	cExits
	cMsgs
	cBytes
	cMonitorSent
	cStepsWritten
	cStepsPulled
	cMaxQueue
	cRedelivered
	cSpilled
	cSubDelivered
	cSubSpilled
	cSubSpillReads
	cFaults
	cCrashes
	cCtlDropped
	cTraceRecords
	cTraceDropped
	cVirtualNs
	cFindings
	cSuppressed
	cPackages
	cFiles
	// The kernel counts come from the counting sim.Tracer, which only
	// the traced run installs.
	cEvents
	cWakes
	cTimeouts
	numCounters
)

// firstKernel splits the counts both runs produce from the traced-only
// kernel counts.
const firstKernel = cEvents

// counts holds one op's deterministic work counts.
type counts [numCounters]int64

// equalUntraced compares the counts every run produces.
func (c *counts) equalUntraced(o *counts) bool {
	for i := counter(0); i < firstKernel; i++ {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// kernelCounter is the counting sim.Tracer: it classifies every executed
// engine event by the label the kernel gives it. Process wake-ups are
// everything that resumes a parked process; timeouts are deadline events
// of event and queue waits; callbacks and process starts are neither.
type kernelCounter struct {
	events, wakes, timeouts int64
}

// Event implements sim.Tracer.
func (k *kernelCounter) Event(_ sim.Time, what string) {
	k.events++
	switch {
	case strings.HasSuffix(what, "timeout"):
		k.timeouts++
	case what == "callback" || strings.HasPrefix(what, "start "):
	default:
		k.wakes++
	}
}

// span is one timed call into a layer, or (with parent 0) one whole op.
// Spans of one op share its op number.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer is the untraced run: every method is a no-op, and no counting
// sim.Tracer is installed.
type tracer struct {
	base  time.Time
	spans []span
	op    int
	root  int // index of the current op's span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// beginOp opens op i's root span.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = i
	t.root = len(t.spans)
	t.spans = append(t.spans, span{Op: i, ID: len(t.spans) + 1, Name: "op",
		Start: int64(time.Since(t.base))})
}

// begin opens a layer span under the current op and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1,
		Parent: t.spans[t.root].ID, Name: name, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

// end closes the span begin or beginOp opened.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	t.spans[h].End = int64(time.Since(t.base))
}

// endOp closes the current op's root span.
func (t *tracer) endOp() {
	if t != nil {
		t.end(t.root)
	}
}

// kernel returns a fresh counting sim.Tracer for the current op, or nil
// in the untraced run.
func (t *tracer) kernel() *kernelCounter {
	if t == nil {
		return nil
	}
	return &kernelCounter{}
}

// durations returns the milliseconds of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
