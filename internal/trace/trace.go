// Package trace is the causal tracing and flight-recorder subsystem for
// the container runtime's control and data planes. It answers the
// question the per-timestep latency signal alone cannot: *why* was a
// timestep slow — a writer pause during a decrease round, a DataTap queue
// backing up, a retry storm after a crash, or a compute hotspot.
//
// Everything derives from the simulation's virtual clock and seeded RNG,
// so traces are byte-for-byte deterministic per seed: two runs of the
// same scenario produce identical exports.
//
// The model is spans and instant events carrying container/component/node
// labels. Parent→child causality is propagated *across* message hops by
// carrying a span ID on evpath events and DataTap descriptors (a typed
// field; attribute maps remain a fallback for untyped carriers), so one
// timestep's end-to-end flow (simulation write → tap
// push → pull → compute → forward) and every control round (increase,
// decrease, offline, heal — including retries and dedupe drops) each form
// a connected span DAG.
//
// Storage is a bounded ring buffer — the *flight recorder* — cheap enough
// to leave on for whole runs. The ring dumps automatically (once) on the
// first SLA violation, queue overflow, or container crash via the
// OnTrigger hook, so the moments leading up to a failure are always
// preserved even when older history has been overwritten.
//
// Every method is nil-receiver safe: instrumented code calls the recorder
// unconditionally, and a disabled trace costs one nil check per site.
package trace

import (
	"strconv"

	"repro/internal/sim"
)

// SpanID identifies a span (or instant) within one recorder. ID 0 is the
// null parent ("no cause recorded").
type SpanID int64

// Attr is one key/value annotation on a record. Attrs are kept sorted by
// key at commit time so exports are deterministic.
type Attr struct {
	Key, Val string
}

// Record is one committed span or instant event.
type Record struct {
	ID     SpanID
	Parent SpanID
	// Cat is the emitting subsystem ("sim", "evpath", "datatap", "core",
	// "ctl", "txn", "fault").
	Cat string
	// Name is the operation ("write", "pull", "compute", "round.increase").
	Name string
	// Container labels the owning container/component ("" when none).
	Container string
	// Node is the machine node the work happened on (-1 unknown).
	Node int
	// Step is the application timestep (-1 when not step-scoped).
	Step int64
	// Start and End bound the span in virtual time. Instants have
	// Start == End and Instant set.
	Start, End sim.Time
	// Instant marks a point event rather than a duration.
	Instant bool
	Attrs   []Attr
}

// Dur returns the span's duration (0 for instants).
func (r Record) Dur() sim.Time { return r.End - r.Start }

// Attr returns the value of the named attribute ("" if absent).
func (r Record) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Config parameterizes a Recorder.
type Config struct {
	// RingCap bounds the flight-recorder ring (default 1 << 16 records).
	RingCap int
	// Kernel also records engine-level scheduling events (one instant per
	// executed event — high volume; the ring keeps it bounded).
	Kernel bool
}

// DefaultRingCap is the flight-recorder bound when Config.RingCap is 0.
const DefaultRingCap = 1 << 16

// Recorder collects spans into the flight-recorder ring. All interaction
// must happen from the simulation's driving goroutine (the recorder, like
// the engine, relies on the cooperative scheduler for exclusion). A nil
// *Recorder means tracing is off, and every method tolerates it
// (TestNilRecorderIsSafe calls each exported method on nil).
type Recorder struct {
	eng     *sim.Engine
	cfg     Config
	nextID  SpanID
	ring    []Record
	head    int   // index of the oldest record when full
	n       int   // live records in the ring
	dropped int64 // records evicted by the ring bound

	trigger   func(reason string)
	triggered bool
	reason    string

	spanFree *Span    // recycled spans, chained through Span.next
	attrFree [][]Attr // attr slices reclaimed from evicted ring records
}

// maxAttrFree bounds the reclaimed-attr pool so one attr-heavy burst
// doesn't pin memory forever.
const maxAttrFree = 1024

// New returns a recorder reading virtual time from eng.
func New(eng *sim.Engine, cfg Config) *Recorder {
	if cfg.RingCap <= 0 {
		cfg.RingCap = DefaultRingCap
	}
	return &Recorder{eng: eng, cfg: cfg, ring: make([]Record, 0, min(cfg.RingCap, 1024))}
}

// Enabled reports whether the recorder is live (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Span is an open (not yet committed) span. Setter methods chain and are
// nil-safe (a nil *Recorder begins nil spans), so instrumentation reads as
// one expression.
type Span struct {
	r    *Recorder
	rec  Record
	next *Span // freelist link while recycled
	done bool  // set by End; guards double-End on a recycled span
}

// Begin opens a span with the given causal parent (0 = root). It returns
// nil when the recorder is nil. Spans are pooled: End recycles them, so
// a span must not be used after its End.
func (r *Recorder) Begin(parent SpanID, cat, name string) *Span {
	if r == nil {
		return nil
	}
	r.nextID++
	// Spans recycle through the freelist End refills; at most
	// max-open-spans are ever allocated.
	s := r.spanFree
	if s == nil {
		s = &Span{r: r}
	} else {
		r.spanFree = s.next
		s.next = nil
	}
	s.done = false
	s.rec = Record{
		ID:     r.nextID,
		Parent: parent,
		Cat:    cat,
		Name:   name,
		Node:   -1,
		Step:   -1,
		Start:  r.eng.Now(),
	}
	return s
}

// ID returns the span's identifier (0 for nil, so a nil span chains as
// "no cause recorded").
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// Container labels the span with its owning container.
func (s *Span) Container(name string) *Span {
	if s != nil {
		s.rec.Container = name
	}
	return s
}

// Node labels the span with its machine node.
func (s *Span) Node(id int) *Span {
	if s != nil {
		s.rec.Node = id
	}
	return s
}

// Step labels the span with its application timestep.
func (s *Span) Step(step int64) *Span {
	if s != nil {
		s.rec.Step = step
	}
	return s
}

// Attr adds a key/value annotation.
func (s *Span) Attr(key, val string) *Span {
	if s != nil {
		if s.rec.Attrs == nil {
			s.rec.Attrs = s.r.grabAttrs()
		}
		s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Val: val})
	}
	return s
}

// grabAttrs hands out a reclaimed attr slice (nil on a pool miss — the
// first append then allocates one that will eventually be reclaimed).
func (r *Recorder) grabAttrs() []Attr {
	if r == nil {
		return nil
	}
	if n := len(r.attrFree); n > 0 {
		a := r.attrFree[n-1]
		r.attrFree[n-1] = nil
		r.attrFree = r.attrFree[:n-1]
		return a
	}
	return nil
}

// AttrInt adds an integer annotation.
func (s *Span) AttrInt(key string, val int64) *Span {
	if s == nil {
		return nil // untraced: format nothing
	}
	return s.Attr(key, strconv.FormatInt(val, 10))
}

// End closes the span at the current virtual time, commits it to the
// ring, and recycles the span. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.rec.End = s.r.eng.Now()
	s.r.commit(s.rec)
	s.rec.Attrs = nil // the ring owns the slice now
	s.next = s.r.spanFree
	s.r.spanFree = s
}

// Instant records a point event and returns its ID so later records can
// chain from it.
func (r *Recorder) Instant(parent SpanID, cat, name string) *Span {
	if r == nil {
		return nil
	}
	sp := r.Begin(parent, cat, name)
	sp.rec.Instant = true
	return sp
}

// commit appends rec to the ring, evicting the oldest record at capacity.
// Attrs are sorted here (stably, by key) so exports never depend on call
// order at the instrumentation sites.
func (r *Recorder) commit(rec Record) {
	if r == nil {
		return
	}
	sortAttrs(rec.Attrs)
	if len(r.ring) < r.cfg.RingCap {
		r.ring = append(r.ring, rec)
		r.n++
		return
	}
	// Full: overwrite the oldest record, reclaiming its attr slice for
	// reuse by open spans.
	if old := r.ring[r.head].Attrs; cap(old) > 0 && len(r.attrFree) < maxAttrFree {
		r.attrFree = append(r.attrFree, old[:0])
	}
	r.ring[r.head] = rec
	r.head = (r.head + 1) % len(r.ring)
	r.dropped++
}

// sortAttrs is a stable insertion sort: attr lists are a handful of keys
// at most, and sort.SliceStable would box the slice and allocate its
// comparison closure on every commit.
func sortAttrs(attrs []Attr) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Key < attrs[j-1].Key; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}

// Records returns the ring's contents in commit order, oldest first. The
// slice is a copy; callers may keep it across further recording.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	if r.n == 0 {
		return nil
	}
	out := make([]Record, 0, r.n)
	for i := 0; i < r.n; i++ {
		rec := r.ring[(r.head+i)%len(r.ring)]
		if len(rec.Attrs) > 0 {
			// Deep-copy: the ring may reclaim its attr slices after
			// eviction, and the snapshot must outlive that.
			rec.Attrs = append([]Attr(nil), rec.Attrs...)
		}
		out = append(out, rec)
	}
	return out
}

// Len returns the live record count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns how many records the ring bound evicted.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// OnTrigger installs the flight-dump hook: fn runs exactly once, at the
// first Trigger call, with that call's reason. Instrumented layers call
// Trigger on SLA violations, queue overflow, and container crashes; the
// hook typically snapshots Records() to a file.
func (r *Recorder) OnTrigger(fn func(reason string)) {
	if r != nil {
		r.trigger = fn
	}
}

// Trigger fires the flight-recorder dump (first call wins; later calls
// only record an instant so the trace shows every would-be trigger).
func (r *Recorder) Trigger(reason string) {
	if r == nil {
		return
	}
	r.Instant(0, "flight", "trigger").Attr("reason", reason).End()
	if r.triggered {
		return
	}
	r.triggered = true
	r.reason = reason
	if r.trigger != nil {
		r.trigger(reason)
	}
}

// Triggered reports whether a flight dump fired, and the first reason.
func (r *Recorder) Triggered() (reason string, ok bool) {
	if r == nil {
		return "", false
	}
	return r.reason, r.triggered
}
