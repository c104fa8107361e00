// Package roundterm is a golden-file fixture for the roundterm analyzer:
// every issued round-path Req must reach a terminal state — completed,
// fenced, or timed out — on all paths from the send to function exit.
package roundterm

// Event is the fixture's stand-in for evpath.Event.
type Event struct {
	Type string
	Data any
}

// RoundHdr is the round header; embedding it makes a round message.
type RoundHdr struct{ Seq, Epoch int64 }

func (h *RoundHdr) hdr() *RoundHdr { return h }

// roundReq is an issuer's request parameter: Req-named, so an Epoch
// stamp through its header marks the value as an issued request.
type roundReq interface{ hdr() *RoundHdr }

// IncreaseReq / IncreaseResp are round-path messages.
type IncreaseReq struct {
	RoundHdr
	N int
}

type IncreaseResp struct {
	RoundHdr
	OK bool
}

type policy struct {
	CallTimeout int64
	CallRetries int64
}

type stone struct{ q []*Event }

func (s *stone) Submit(ev *Event) { s.q = append(s.q, ev) }

type queue struct{ q []*Event }

// RecvTimeout is the bounded wait the round's deadline rides on.
func (q *queue) RecvTimeout(d int64) (*Event, bool) {
	if len(q.q) == 0 || d <= 0 {
		return nil, false
	}
	ev := q.q[0]
	q.q = q.q[1:]
	return ev, true
}

// span is the flight-recorder handle whose End() is the terminal state.
type span struct{ done bool }

func (s *span) End() { s.done = true }

type tracer struct{}

func (t *tracer) begin() *span { return &span{} }

// stampReq stamps a round Req's header; its summary marks the
// parameter as an issued request at every caller.
func stampReq(req *IncreaseReq, seq, epoch int64) {
	h := req.hdr()
	h.Seq, h.Epoch = seq, epoch
}

type manager struct {
	policy   policy
	out      *stone
	in       *queue
	tr       *tracer
	epoch    int64
	suspects int
}

// abandon is a terminating helper: it records the suspect and closes the
// round's span, so callers may terminate through it.
func (m *manager) abandon(sp *span) {
	m.suspects++
	sp.End()
}

// goodTerm ends the round on both the response and the timeout path.
func (m *manager) goodTerm(seq int64) *Event {
	req := &IncreaseReq{N: 1}
	stampReq(req, seq, m.epoch)
	sp := m.tr.begin()
	ev := &Event{Type: "inc", Data: req}
	m.out.Submit(ev)
	if v, ok := m.in.RecvTimeout(m.policy.CallTimeout); ok {
		sp.End()
		return v
	}
	sp.End()
	return nil
}

// goodDeferEnd terminates every path at once through a deferred End —
// including the early error return.
func (m *manager) goodDeferEnd(seq int64) *Event {
	req := &IncreaseReq{}
	stampReq(req, seq, m.epoch)
	sp := m.tr.begin()
	defer sp.End()
	m.out.Submit(&Event{Type: "inc", Data: req})
	v, ok := m.in.RecvTimeout(m.policy.CallTimeout)
	if !ok {
		return nil
	}
	return v
}

// goodTermViaHelper terminates the error branch through a helper that
// carries the Term summary.
func (m *manager) goodTermViaHelper(seq int64) {
	req := &IncreaseReq{}
	stampReq(req, seq, m.epoch)
	sp := m.tr.begin()
	m.out.Submit(&Event{Type: "inc", Data: req})
	if _, ok := m.in.RecvTimeout(m.policy.CallTimeout); !ok {
		m.abandon(sp)
		return
	}
	sp.End()
}

// goodRetryLoop is the GM call-loop shape: one span per attempt, ended
// before the next attempt or the final return.
func (m *manager) goodRetryLoop(seq int64) *Event {
	req := &IncreaseReq{}
	stampReq(req, seq, m.epoch)
	timeout := m.policy.CallTimeout
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		sp := m.tr.begin()
		m.out.Submit(&Event{Type: "inc", Data: req})
		v, ok := m.in.RecvTimeout(timeout)
		if ok {
			sp.End()
			return v
		}
		sp.End()
		timeout *= 2
	}
	m.suspects++
	return nil
}

// badDrop loses the round in the error branch: the early return skips
// every End.
func (m *manager) badDrop(seq int64) *Event {
	req := &IncreaseReq{}
	stampReq(req, seq, m.epoch)
	sp := m.tr.begin()
	m.out.Submit(&Event{Type: "inc", Data: req}) // want "may be dropped"
	v, ok := m.in.RecvTimeout(m.policy.CallTimeout)
	if !ok {
		return nil // drops the round: no terminal state on this path
	}
	sp.End()
	return v
}

// badNeverEnds sends and walks away on every path. The request
// parameter is tracked through its header stamp.
func (m *manager) badNeverEnds(req roundReq) {
	req.hdr().Epoch = m.epoch
	ev := &Event{Type: "inc", Data: req}
	m.out.Submit(ev) // want "may be dropped"
}

// refuse sends a Resp, not a Req: responses are the other end's round,
// never tracked here.
func (m *manager) refuse(seq int64) {
	resp := &IncreaseResp{RoundHdr: RoundHdr{Seq: seq, Epoch: m.epoch}, OK: false}
	m.out.Submit(&Event{Type: "resp", Data: resp})
}

// hint is the audited exception: a deliberate fire-and-forget round the
// receiver's next heartbeat closes.
func (m *manager) hint(seq int64) {
	req := &IncreaseReq{}
	stampReq(req, seq, m.epoch)
	//iocheck:allow roundterm fixture: fire-and-forget hint round; the receiver's next heartbeat closes it
	m.out.Submit(&Event{Type: "hint", Data: req})
}
