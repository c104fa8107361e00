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
// carrying a span ID in a typed field of evpath events and DataTap
// descriptors, so one timestep's end-to-end flow (simulation write → tap
// push → pull → compute → forward) and every control round (increase,
// decrease, offline, heal — including retries and dedupe drops) each form
// a connected span DAG.
//
// Storage is a bounded ring buffer — the *flight recorder* — cheap enough
// to leave on for whole runs. The ring grows in fixed chunks of 128
// records up to Config.RingCap, so a run pays only for the records it
// keeps, and no chunk is ever copied. A record's attrs live in attr
// space its ring slot owns, carved from chunks of 128 attrs; an integer
// attr stays an int64 until Records formats it. Once the ring is full, a
// record overwrites the oldest slot and reuses its attr space. A span
// with two attrs thus costs 224 bytes (a 128-byte slot and 48 bytes per
// attr) and no allocation of its own while the ring fills, and nothing
// once it is full: about 65 ns per record on a 2-vCPU Xeon with go1.24.
// The ring dumps automatically (once) on the first SLA violation, queue
// overflow, or container crash via the OnTrigger hook, so the moments
// leading up to a failure are always preserved even when older history
// has been overwritten.
//
// Every method is nil-receiver safe: instrumented code calls the recorder
// unconditionally, and a disabled trace costs one nil check per site.
package trace

import (
	"math/bits"
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
	chunks  [][]entry // the ring, allocated ringChunk slots at a time as it fills
	head    int       // index of the oldest record when full
	n       int       // live records in the ring
	dropped int64     // records evicted by the ring bound

	trigger   func(reason string)
	triggered bool
	reason    string

	spanFree  *Span  // recycled spans, chained through Span.next
	attrSpare []attr // the uncarved tail of the newest attr chunk
}

// ringChunk is the ring's allocation unit: the ring grows one chunk of
// slots at a time up to RingCap, so a run pays for the records it keeps,
// and a chunk, once allocated, is never copied.
const (
	ringShift = 7
	ringChunk = 1 << ringShift
)

// attrChunk is how many attrs one chunk of attr storage holds. Slots
// carve their attr space out of these chunks.
const attrChunk = 128

// entry is one ring slot: a record whose attrs are still unformatted.
type entry struct {
	id, parent           SpanID
	cat, name, container string
	node                 int
	step                 int64
	start, end           sim.Time
	instant              bool
	// attrs is the slot's own attr space, carved from an attr chunk.
	// An evicted slot keeps it for the record that overwrites it.
	attrs []attr
}

// attr is an Attr as stored: an integer value stays an int64 until a
// reader asks for the record.
type attr struct {
	key, str string
	num      int64
	isNum    bool
}

// val formats the attr's value as Records reports it.
func (a attr) val() string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// New returns a recorder reading virtual time from eng.
func New(eng *sim.Engine, cfg Config) *Recorder {
	if cfg.RingCap <= 0 {
		cfg.RingCap = DefaultRingCap
	}
	return &Recorder{eng: eng, cfg: cfg}
}

// Enabled reports whether the recorder is live (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Span is an open (not yet committed) span. Setter methods chain and are
// nil-safe (a nil *Recorder begins nil spans), so instrumentation reads as
// one expression.
type Span struct {
	r *Recorder
	// e is the record being built. Its attrs are the span's own buffer,
	// kept across freelist recycles; End copies them into the ring.
	e    entry
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
	s.e = entry{
		id:     r.nextID,
		parent: parent,
		cat:    cat,
		name:   name,
		node:   -1,
		step:   -1,
		start:  r.eng.Now(),
		attrs:  s.e.attrs[:0],
	}
	return s
}

// ID returns the span's identifier (0 for nil, so a nil span chains as
// "no cause recorded").
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.e.id
}

// Container labels the span with its owning container.
func (s *Span) Container(name string) *Span {
	if s != nil {
		s.e.container = name
	}
	return s
}

// Node labels the span with its machine node.
func (s *Span) Node(id int) *Span {
	if s != nil {
		s.e.node = id
	}
	return s
}

// Step labels the span with its application timestep.
func (s *Span) Step(step int64) *Span {
	if s != nil {
		s.e.step = step
	}
	return s
}

// Attr adds a key/value annotation.
func (s *Span) Attr(key, val string) *Span {
	if s != nil {
		s.e.attrs = append(s.e.attrs, attr{key: key, str: val})
	}
	return s
}

// AttrInt adds an integer annotation. The value is stored as is and
// formatted base 10 only when Records reads it.
func (s *Span) AttrInt(key string, val int64) *Span {
	if s != nil {
		s.e.attrs = append(s.e.attrs, attr{key: key, num: val, isNum: true})
	}
	return s
}

// End closes the span at the current virtual time, commits it to the
// ring, and recycles the span. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.e.end = s.r.eng.Now()
	s.r.commit(&s.e)
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
	sp.e.instant = true
	return sp
}

// commit copies e into the ring's next slot, evicting the oldest record
// at capacity. Attrs are sorted here (stably, by key) so exports never
// depend on call order at the instrumentation sites. The slot keeps its
// own attr space, so e's attrs buffer stays with its owner.
func (r *Recorder) commit(e *entry) {
	sortAttrs(e.attrs)
	var i int
	if r.n < r.cfg.RingCap {
		i = r.n
		r.n++
		if i == len(r.chunks)<<ringShift {
			r.chunks = append(r.chunks, make([]entry, min(ringChunk, r.cfg.RingCap-i)))
		}
	} else {
		i = r.head
		if r.head++; r.head == r.cfg.RingCap {
			r.head = 0
		}
		r.dropped++
	}
	slot := &r.chunks[i>>ringShift][i&(ringChunk-1)]
	attrs := slot.attrs[:0]
	if n := len(e.attrs); n > cap(attrs) {
		if cap(attrs) > 0 {
			// An evicted slot too small for its new record: round up
			// to a power of two, so a slot overwritten by ever-larger
			// records carves under five times its largest record's
			// space over the whole run.
			n = 1 << bits.Len(uint(n-1))
		}
		attrs = r.carve(n)
	}
	*slot = *e
	slot.attrs = append(attrs, e.attrs...)
}

// carve hands out space for n attrs from the current attr chunk. Slots
// keep what they are given, so in steady state a full ring carves
// nothing.
func (r *Recorder) carve(n int) []attr {
	if n > attrChunk {
		return make([]attr, 0, n)
	}
	if len(r.attrSpare) < n {
		r.attrSpare = make([]attr, attrChunk)
	}
	s := r.attrSpare[:0:n]
	r.attrSpare = r.attrSpare[n:]
	return s
}

// sortAttrs is a stable insertion sort: attr lists are a handful of keys
// at most, and sort.SliceStable would box the slice and allocate its
// comparison closure on every commit.
func sortAttrs(attrs []attr) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].key < attrs[j-1].key; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}

// at returns the i-th oldest live record's slot.
func (r *Recorder) at(i int) *entry {
	if i += r.head; i >= r.cfg.RingCap {
		i -= r.cfg.RingCap
	}
	return &r.chunks[i>>ringShift][i&(ringChunk-1)]
}

// record converts a slot to its public form. Its attrs are formatted
// into the front of into, which must have room for them all.
func (e *entry) record(into []Attr) Record {
	rec := Record{
		ID:        e.id,
		Parent:    e.parent,
		Cat:       e.cat,
		Name:      e.name,
		Container: e.container,
		Node:      e.node,
		Step:      e.step,
		Start:     e.start,
		End:       e.end,
		Instant:   e.instant,
	}
	if len(e.attrs) > 0 {
		rec.Attrs = into[:len(e.attrs):len(e.attrs)]
		for k, a := range e.attrs {
			rec.Attrs[k] = Attr{Key: a.key, Val: a.val()}
		}
	}
	return rec
}

// Records returns the ring's contents in commit order, oldest first. The
// slice is a copy; callers may keep it across further recording. All
// records' attrs share one backing array, each capped at its own length
// so an append to one never reaches the next.
func (r *Recorder) Records() []Record {
	if r == nil || r.n == 0 {
		return nil
	}
	nattr := 0
	for i := 0; i < r.n; i++ {
		nattr += len(r.at(i).attrs)
	}
	out := make([]Record, r.n)
	attrs := make([]Attr, nattr)
	for i := range out {
		e := r.at(i)
		out[i] = e.record(attrs)
		attrs = attrs[len(e.attrs):]
	}
	return out
}

// MissingParents returns, oldest first and at most limit of them, the
// live records whose nonzero parent is not a live record: the orphans a
// causal-trace audit reports. It reads the ring in place; span IDs are
// dense (1 to the last issued), so a bitset stands in for an ID set.
func (r *Recorder) MissingParents(limit int) []Record {
	if r == nil || limit <= 0 {
		return nil
	}
	live := make([]uint64, int(r.nextID)/64+1)
	for i := 0; i < r.n; i++ {
		if id := r.at(i).id; id > 0 {
			live[id/64] |= 1 << (id % 64)
		}
	}
	var out []Record
	for i := 0; i < r.n && len(out) < limit; i++ {
		e := r.at(i)
		p := e.parent
		if p == 0 || p > 0 && p <= r.nextID && live[p/64]&(1<<(p%64)) != 0 {
			continue
		}
		out = append(out, e.record(make([]Attr, len(e.attrs))))
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
