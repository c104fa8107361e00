// Multi-subscriber streaming fan-out for DataTap channels.
//
// A SubHub attached to a channel observes every accepted write and fans
// the descriptor stream out to any number of subscribers — dashboards,
// checkpointers, ad-hoc analysis — each advancing an independent cursor
// over a hub-assigned sequence. The design goal is the paper's offline
// re-route guarantee turned inside out: no subscriber, however slow or
// dead, may ever block the simulation. Publish therefore takes no
// process handle at all — it is structurally unable to park — and the
// per-subscriber robustness ladder degrades instead:
//
//  1. Backpressure against the subscriber only: each subscriber owns a
//     small staged buffer; when it is full the subscriber simply lags.
//     Writers never see the lag.
//  2. Degrade to provenance-stamped spill: the hub keeps a bounded
//     in-memory tail of recent descriptors; entries evicted while a lagging
//     (or crashed) subscriber still needs them are written to the channel's
//     BP spill stream — the paper's disk-with-provenance offline path —
//     and the subscriber later catches up through spill reads at disk
//     bandwidth, paying the cost on its own clock.
//  3. Crash and reconnect: a crashed subscriber keeps its durable cursor.
//     On reconnect the serving container runs epoch-fenced SubResume /
//     SubReplay control rounds (see internal/core) that restore the
//     subscriber from spill or tail; the rounds ride the manager's
//     retry/backoff/dedupe machinery so redelivery is idempotent.
//
// Subscribers are not processes. A fetch (FetchThen) is a chain of engine
// events: a transfer from the source node, a spill read, or a park that
// the hub ends by scheduling the subscriber's next step.
//
// Accounting is exact and per subscriber: every published sequence past a
// subscriber's join point is delivered, knowingly dropped, staged in its
// buffer, pending in the shared tail, or resident in the spill store.
// The chaos sub-conservation oracle asserts exactly that equation.
package datatap

import (
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SubConfig tunes a channel's subscriber hub.
type SubConfig struct {
	// BufCap bounds each subscriber's staged descriptor buffer
	// (default 8).
	BufCap int
	// TailCap bounds the hub's shared in-memory tail of recent
	// descriptors (default 64). Entries evicted past a subscriber's
	// cursor degrade to the spill store.
	TailCap int
	// InjectCursorSkip, when n > 0, makes every n-th spill catch-up read
	// advance the cursor without delivering — a deliberately seeded
	// conservation bug the chaos smoke test uses to prove the
	// sub-conservation oracle actually fires. Never set outside tests.
	InjectCursorSkip int
}

// withDefaults fills zero fields.
func (c SubConfig) withDefaults() SubConfig {
	if c.BufCap <= 0 {
		c.BufCap = 8
	}
	if c.TailCap <= 0 {
		c.TailCap = 64
	}
	return c
}

// SubHubStats aggregates hub-wide activity.
type SubHubStats struct {
	// Published counts descriptors fanned out (== the channel's accepted
	// writes since the hub attached).
	Published int64
	// Spilled / SpillReclaimed count tail evictions into the spill store
	// and spill entries retired once no subscriber can need them.
	Spilled        int64
	SpillReclaimed int64
	// Delivered / Dropped sum the per-subscriber counters.
	Delivered int64
	Dropped   int64
	// SpillReads counts catch-up reads served from the spill store.
	SpillReads int64
	// Resumes / Replays count served SubResume / SubReplay rounds.
	Resumes int64
	Replays int64
	// WatermarkScans counts full rescans of the subscriber cursors to
	// recompute the reclaim watermark. Each rescan raises the watermark
	// by at least one sequence, so it never exceeds Published.
	WatermarkScans int64
	// PublishStall is the virtual time Publish ever parked a writer.
	// Publish takes no process handle, so this is structurally zero; the
	// chaos SLA oracle asserts it stays that way.
	PublishStall sim.Time
}

// SubHub fans a channel's descriptor stream out to subscribers. One hub
// per channel, created by Channel.AttachHub.
type SubHub struct {
	ch  *Channel
	cfg SubConfig

	// pubSeq is the hub-assigned monotonic sequence of the latest
	// published descriptor (1-based; 0 = nothing published).
	pubSeq int64
	// tail holds the most recent descriptors; tail[0] has sequence
	// baseSeq. When the tail is empty baseSeq == pubSeq+1.
	tail    []*Meta
	baseSeq int64

	// spillRes maps evicted-but-still-needed sequences to their
	// descriptors; spillLow is the lowest sequence that may still be
	// resident (the reclaim scan cursor).
	spillRes map[int64]*Meta
	spillLow int64

	subs  map[string]*Subscriber
	order []*Subscriber // join order; all iteration goes through this

	// low caches the lowest cursor over order (crashed subscribers
	// included) and nLow how many subscribers sit on it. Cursors only
	// rise, so low moves only when its last occupant advances.
	low  int64
	nLow int

	stats  SubHubStats
	closed bool
}

// AttachHub creates (once) and returns the channel's subscriber hub.
func (c *Channel) AttachHub(cfg SubConfig) *SubHub {
	if c.hub == nil {
		c.hub = &SubHub{
			ch:       c,
			cfg:      cfg.withDefaults(),
			baseSeq:  1,
			spillRes: make(map[int64]*Meta),
			spillLow: 1,
			subs:     make(map[string]*Subscriber),
		}
	}
	return c.hub
}

// Stats returns a snapshot of the hub counters.
func (h *SubHub) Stats() SubHubStats {
	if h == nil {
		return SubHubStats{}
	}
	return h.stats
}

// Subscriber is one streaming consumer with an independent cursor.
type Subscriber struct {
	hub  *SubHub
	id   string
	node int

	// cursor is the next sequence to deliver; joinSeq is the hub sequence
	// at join time (sequences <= joinSeq are not owed to this
	// subscriber).
	cursor  int64
	joinSeq int64

	// buf is a fixed-capacity ring staging descriptors contiguously from
	// cursor; it only ever holds sequences still reachable when staged, so
	// the entry i slots past bufHead has sequence cursor+i. A ring rather
	// than an append-grown slice: staging runs under a writer's Publish and
	// must not allocate per event.
	buf     []*Meta
	bufHead int
	bufLen  int

	// The delivery chain (see FetchThen). done is the pending fetch's
	// callback; parked is set while it waits for the hub to wake it;
	// phase says what the next step completes, and inflight and span are
	// that phase's descriptor and catch-up span. The fields are reused on
	// every delivery, so a delivery allocates nothing.
	done     func(*Meta, bool)
	stepFn   func() // s.step, bound once
	parked   bool
	phase    subPhase
	inflight *Meta
	span     *trace.Span
	xfer     *cluster.Transfer // nil without a machine
	xferOK   bool
	crashed  bool
	// gen counts reconnect generations: each Crash bumps it, and a
	// SubNotice carries it so stale reconnect rounds are deduped.
	gen int64

	delivered  int64
	dropped    int64
	spillReads int64
	resumes    int64
	replays    int64
	maxLag     int64
	skipTick   int64 // InjectCursorSkip counter
}

// Subscribe attaches a new subscriber reading from the given node. The
// subscriber starts at the live edge (it is owed nothing published before
// it joined); joining a closed hub is legal and yields an immediately
// drained subscriber. Re-subscribing an existing id returns the existing
// subscriber (reconnect goes through Crash/Resume, not re-subscribe).
func (h *SubHub) Subscribe(id string, node int) *Subscriber {
	if s := h.subs[id]; s != nil {
		return s
	}
	s := &Subscriber{hub: h, id: id, node: node, joinSeq: h.pubSeq,
		cursor: h.pubSeq + 1, buf: make([]*Meta, h.cfg.BufCap)}
	s.stepFn = s.step
	if h.ch.mach != nil {
		s.xfer = h.ch.mach.NewTransfer(s.sent)
	}
	h.subs[id] = s
	h.order = append(h.order, s)
	// Every existing cursor is at most pubSeq+1, so the joiner never
	// lowers the watermark; it only joins the subscribers sitting on it.
	switch {
	case len(h.order) == 1:
		h.low, h.nLow = s.cursor, 1
	case s.cursor == h.low:
		h.nLow++
	}
	return s
}

// ID returns the subscriber's identifier.
func (s *Subscriber) ID() string { return s.id }

// Gen returns the subscriber's reconnect generation.
func (s *Subscriber) Gen() int64 { return s.gen }

// Crashed reports whether the subscriber is currently crashed.
func (s *Subscriber) Crashed() bool { return s.crashed }

// Lag returns how many published sequences the subscriber has not yet
// consumed.
func (s *Subscriber) Lag() int64 {
	lag := s.hub.pubSeq - s.cursor + 1
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Publish fans one accepted write out to the subscribers. It takes no
// process handle: it cannot send, sleep, or park, so a slow subscriber is
// structurally unable to block the writer calling it. Nil-safe.
func (h *SubHub) Publish(m *Meta) {
	if h == nil || h.closed {
		return
	}
	h.pubSeq++
	h.tail = append(h.tail, m)
	h.stats.Published++
	for _, s := range h.order {
		if lag := h.pubSeq - s.cursor + 1; lag > s.maxLag {
			s.maxLag = lag
		}
		if !s.crashed {
			s.stage()
			s.wakeUp()
		}
	}
	h.evict()
}

// stage moves contiguous descriptors from the tail into the subscriber's
// buffer while there is room. buf stays contiguous from cursor: staging
// stops at the first sequence no longer in the tail (those are served by
// the spill catch-up path instead).
func (s *Subscriber) stage() {
	h := s.hub
	for s.bufLen < h.cfg.BufCap {
		next := s.cursor + int64(s.bufLen)
		if next < h.baseSeq || next > h.pubSeq {
			return
		}
		s.buf[(s.bufHead+s.bufLen)%len(s.buf)] = h.tail[next-h.baseSeq]
		s.bufLen++
	}
}

// minCursor returns the lowest cursor over every subscriber, crashed ones
// included — the watermark below which no sequence can be owed.
func (h *SubHub) minCursor() int64 {
	if len(h.order) == 0 {
		return h.pubSeq + 1
	}
	return h.low
}

// advance moves the subscriber's cursor past one sequence and keeps the
// hub's watermark cache current. Only the last subscriber leaving the
// watermark triggers a rescan, and every rescan raises the watermark, so
// rescans total at most one per published sequence.
func (s *Subscriber) advance() {
	h := s.hub
	s.cursor++
	if s.cursor-1 != h.low {
		return
	}
	if h.nLow--; h.nLow > 0 {
		return
	}
	h.stats.WatermarkScans++
	h.low, h.nLow = h.pubSeq+1, 0
	for _, o := range h.order {
		switch {
		case o.cursor < h.low:
			h.low, h.nLow = o.cursor, 1
		case o.cursor == h.low:
			h.nLow++
		}
	}
}

// evict trims the tail to its bound. An evicted sequence some subscriber
// may still need (sequence >= the cursor watermark — crashed subscribers
// count, so their cleared buffers stay recoverable) degrades to the spill
// store with a provenance record.
func (h *SubHub) evict() {
	for len(h.tail) > h.cfg.TailCap {
		seq, m := h.baseSeq, h.tail[0]
		h.tail[0] = nil
		h.tail = h.tail[1:]
		h.baseSeq++
		if seq < h.minCursor() {
			continue // everyone consumed or passed it
		}
		h.spillToStore(seq, m)
	}
}

// spillToStore moves one evicted descriptor to the spill tier. The BP
// write itself is modeled asynchronously (local storage accepts the burst;
// catch-up reads pay the disk cost), so eviction — which runs under a
// writer's Publish — charges no time.
func (h *SubHub) spillToStore(seq int64, m *Meta) {
	h.spillRes[seq] = m
	h.ch.spillStoreFor().record(h.ch.name, m, "sub-payload", "sub-lag")
	h.stats.Spilled++
	h.ch.tracer.Instant(m.Span, "datatap", "sub.spill").
		Container(h.ch.name).Step(m.Step).AttrInt("seq", seq).End()
}

// reclaim retires spill entries no subscriber can need any more. It runs
// on every delivery, so the watermark lookup must stay O(1).
func (h *SubHub) reclaim() {
	min := h.minCursor()
	for seq := h.spillLow; seq < min; seq++ {
		if _, ok := h.spillRes[seq]; ok {
			delete(h.spillRes, seq)
			h.stats.SpillReclaimed++
		}
	}
	if min > h.spillLow {
		h.spillLow = min
	}
}

// subPhase names what a subscriber's next step completes.
type subPhase uint8

const (
	subIdle    subPhase = iota
	subSending          // the transfer of the buffer's head
	subReading          // the spill catch-up read of the cursor
)

// wakeUp schedules a parked subscriber's next step.
func (s *Subscriber) wakeUp() {
	if s.parked {
		s.parked = false
		eng := s.hub.ch.eng
		eng.At(eng.Now(), s.stepFn)
	}
}

// FetchThen asks for the next descriptor past the subscriber's cursor and
// calls done once with it, or with ok=false once the hub is closed and
// the subscriber has drained. done may run before FetchThen returns,
// when a descriptor is ready without any transfer cost, and may call
// FetchThen again. Until then the fetch runs as a chain of engine
// events, never a process, and never on a writer's clock: buffered
// descriptors are charged as a transfer from the source node, catch-up
// from the spill store at disk bandwidth, and with nothing to deliver —
// or while crashed, until Resume — the subscriber parks until the hub
// wakes it. One fetch at a time: asking again before done has run panics.
func (s *Subscriber) FetchThen(done func(m *Meta, ok bool)) {
	if s.done != nil {
		panic("datatap: FetchThen on subscriber " + s.id + " with a fetch pending")
	}
	s.done = done
	s.step()
}

// sent is the transfer's completion callback.
func (s *Subscriber) sent(ok bool) {
	s.xferOK = ok
	s.step()
}

// step advances the pending fetch: it completes the phase in flight, if
// any, then runs the delivery ladder until it delivers, drains, parks, or
// starts a transfer or spill read that takes virtual time.
func (s *Subscriber) step() {
	h := s.hub
	for {
		switch s.phase {
		case subSending:
			s.phase = subIdle
			m := s.inflight
			s.inflight = nil
			if s.crashed {
				// Crashed mid-transfer: the buffer was cleared under us and
				// the sequence stays owed (tail or spill keeps it). Park.
				continue
			}
			// Pop and account only after the transfer, so a snapshot taken
			// while the send is in flight still sees the sequence staged.
			s.buf[s.bufHead] = nil
			s.bufHead = (s.bufHead + 1) % len(s.buf)
			s.bufLen--
			s.advance()
			h.reclaim()
			if !s.xferOK {
				// The source node died with the payload unread: a knowing
				// drop, not silent loss.
				s.dropped++
				h.stats.Dropped++
				continue
			}
			s.delivered++
			h.stats.Delivered++
			s.stage()
			s.finish(m, true)
			return
		case subReading:
			s.phase = subIdle
			m, sp := s.inflight, s.span
			s.inflight, s.span = nil, nil
			if s.crashed {
				// Crashed mid-read; the entry stays resident (the
				// reclaim watermark cannot pass our cursor).
				sp.Attr("fail", "crashed").End()
				continue
			}
			if n := int64(h.cfg.InjectCursorSkip); n > 0 {
				s.skipTick++
				if s.skipTick%n == 0 {
					// Seeded bug (tests only): skip the sequence without
					// delivering or counting — the conservation oracle
					// must catch this.
					s.advance()
					sp.Attr("fail", "cursor-skip").End()
					continue
				}
			}
			s.advance()
			s.delivered++
			s.spillReads++
			h.stats.Delivered++
			h.stats.SpillReads++
			h.reclaim()
			sp.End()
			s.finish(m, true)
			return
		}
		if s.crashed {
			s.parked = true
			return
		}
		if s.bufLen > 0 {
			m := s.buf[s.bufHead]
			s.phase, s.inflight, s.xferOK = subSending, m, true
			if h.ch.mach != nil && m.SrcNode != s.node {
				if s.xfer.Start(m.SrcNode, s.node, m.Size) {
					return // sent resumes the chain
				}
				s.xferOK = false // the source is down: nothing was sent
			}
			continue
		}
		if s.cursor < h.baseSeq {
			// Behind the tail: catch up through the spill store.
			if m, ok := h.spillRes[s.cursor]; ok {
				s.phase, s.inflight = subReading, m
				s.span = h.ch.tracer.Begin(m.Span, "datatap", "sub.catchup").
					Container(h.ch.name).Node(s.node).Step(m.Step).
					AttrInt("lag", s.Lag())
				eng := h.ch.eng
				eng.At(eng.Now()+spillTime(m.Size), s.stepFn)
				return
			}
			// Not spill-resident: nothing to deliver for this sequence.
			s.advance()
			continue
		}
		s.stage()
		if s.bufLen > 0 {
			continue
		}
		if h.closed {
			s.finish(nil, false)
			return
		}
		s.parked = true
		return
	}
}

// finish ends the pending fetch. The subscriber is idle before done runs,
// so done may fetch again at once.
func (s *Subscriber) finish(m *Meta, ok bool) {
	done := s.done
	s.done = nil
	done(m, ok)
}

// Crash marks the subscriber crashed: its staged buffer is discarded (the
// tail and spill tiers keep every sequence recoverable), its durable
// cursor survives, and its fetch parks at its next step until Resume. Idempotent —
// a double crash within one step reports false and changes nothing.
func (h *SubHub) Crash(id string) bool {
	s := h.subs[id]
	if s == nil || s.crashed {
		return false
	}
	s.crashed = true
	s.gen++
	for i := range s.buf {
		s.buf[i] = nil
	}
	s.bufHead, s.bufLen = 0, 0
	h.ch.tracer.Instant(0, "datatap", "sub.crash").
		Container(h.ch.name).Node(s.node).AttrInt("gen", s.gen).
		AttrInt("lag", s.Lag()).End()
	return true
}

// Resume serves a SubResume control round: it revives a crashed
// subscriber at its durable cursor, restages what the tail still holds,
// and reports where catch-up must come from. Idempotent — resuming a live
// subscriber (a retried round) just reports its current state.
func (h *SubHub) Resume(id string) (cursor, lag int64, fromSpill, ok bool) {
	s := h.subs[id]
	if s == nil {
		return 0, 0, false, false
	}
	if s.crashed {
		s.crashed = false
		s.resumes++
		h.stats.Resumes++
	}
	s.stage()
	s.wakeUp()
	fromSpill = s.cursor < h.baseSeq
	h.ch.tracer.Instant(0, "datatap", "sub.resume").
		Container(h.ch.name).Node(s.node).AttrInt("lag", s.Lag()).
		AttrInt("cursor", s.cursor).End()
	return s.cursor, s.Lag(), fromSpill, true
}

// Replay serves a SubReplay control round: it restages the tail window
// past the given cursor for a resumed subscriber whose catch-up starts in
// the tail (no spill residency). Idempotent; returns how many
// descriptors are staged after the call.
func (h *SubHub) Replay(id string, from int64) (staged int64, ok bool) {
	s := h.subs[id]
	if s == nil {
		return 0, false
	}
	s.replays++
	h.stats.Replays++
	s.stage()
	s.wakeUp()
	return int64(s.bufLen), true
}

// Close wakes every parked subscriber; each pending fetch drains what
// remains and then reports ok=false. Called from Channel.Close (nil-safe).
func (h *SubHub) Close() {
	if h == nil || h.closed {
		return
	}
	h.closed = true
	for _, s := range h.order {
		s.wakeUp()
	}
}

// SubSnapshot is one subscriber's conservation ledger, audited by the
// chaos sub-conservation oracle: every sequence published past the join
// point is delivered, knowingly dropped, staged, tail-pending, or
// spill-resident — nothing else.
type SubSnapshot struct {
	ID        string
	Published int64 // sequences published since this subscriber joined
	Delivered int64
	Dropped   int64
	Buffered  int64
	// TailPending counts sequences owed to the subscriber still held in
	// the hub's shared tail (beyond its staged buffer).
	TailPending int64
	// SpillResident counts sequences owed to the subscriber currently
	// resident in the spill store.
	SpillResident int64
	SpillReads    int64
	Resumes       int64
	Lag           int64
	MaxLag        int64
	Crashed       bool
}

// Unaccounted returns the sequences the ledger cannot explain (0 in a
// correct run).
func (s SubSnapshot) Unaccounted() int64 {
	return s.Published - s.Delivered - s.Dropped - s.Buffered - s.TailPending - s.SpillResident
}

// Snapshot captures one subscriber's ledger.
func (s *Subscriber) Snapshot() SubSnapshot {
	h := s.hub
	snap := SubSnapshot{
		ID:         s.id,
		Published:  h.pubSeq - s.joinSeq,
		Delivered:  s.delivered,
		Dropped:    s.dropped,
		Buffered:   int64(s.bufLen),
		SpillReads: s.spillReads,
		Resumes:    s.resumes,
		Lag:        s.Lag(),
		MaxLag:     s.maxLag,
		Crashed:    s.crashed,
	}
	// Sequences past the staged buffer split at baseSeq: at or above it
	// they sit in the shared tail; below it they are spill-resident.
	start := s.cursor + int64(s.bufLen)
	if tailFrom := max64(start, h.baseSeq); tailFrom <= h.pubSeq {
		snap.TailPending = h.pubSeq - tailFrom + 1
	}
	for seq := start; seq < h.baseSeq; seq++ {
		if _, ok := h.spillRes[seq]; ok {
			snap.SpillResident++
		}
	}
	return snap
}

// Snapshots returns every subscriber's ledger in join order.
func (h *SubHub) Snapshots() []SubSnapshot {
	if h == nil {
		return nil
	}
	out := make([]SubSnapshot, 0, len(h.order))
	for _, s := range h.order {
		out = append(out, s.Snapshot())
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
