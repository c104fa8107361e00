// Package roundflow is a golden-file fixture for the roundflow analyzer:
// the issue leg (deadline/retry budget before every send of a round-path
// Req), the serve leg (Seq dedupe + epoch fence on all paths before a
// state-applying round dispatch), and the passed-request leg (Req
// literals handed to a budgeted caller).
package roundflow

// Event is the fixture's stand-in for evpath.Event — the send envelope.
type Event struct {
	Type string
	Data any
}

// RoundHdr is the round header: embedding it makes a struct a round
// message, and the Req/Resp/Notice suffix gives the direction.
type RoundHdr struct{ Seq, Epoch int64 }

func (h *RoundHdr) hdr() *RoundHdr { return h }

type roundMsg interface{ hdr() *RoundHdr }

// roundReq is the issuer's request parameter: Req-named, so an Epoch
// stamp through its header marks the value as an issued request.
type roundReq interface {
	roundMsg
	kind() string
}

// IncreaseReq / IncreaseResp are round-path messages.
type IncreaseReq struct {
	RoundHdr
	N int
}

func (*IncreaseReq) kind() string { return "inc" }

type IncreaseResp struct {
	RoundHdr
	OK bool
}

// PingNotice is a round-path Notice.
type PingNotice struct{ RoundHdr }

// StealReq carries plain Seq/Epoch/Shard fields and embeds no header:
// shard-relay traffic has its own single-writer discipline and is not a
// round.
type StealReq struct {
	Seq   int64
	Epoch int64
	Shard int
}

type policy struct {
	CallTimeout int64
	CallRetries int64
}

type stone struct{ q []*Event }

func (s *stone) Submit(ev *Event) { s.q = append(s.q, ev) }

// send wraps a payload as an Event; its summary marks the parameter as
// an event-data sink.
func (s *stone) send(data any) { s.q = append(s.q, &Event{Type: "w", Data: data}) }

type manager struct {
	policy      policy
	out         *stone
	fencedEpoch int64
	nextSeq     int64
	count       int
	served      map[int64]*IncreaseResp
	seen        map[int64]int64
	inbox       []any
}

// seqOf reads the Seq off a round message's header — the dedupe
// primitive, which callers inherit through its summary.
func seqOf(v any) int64 {
	if m, ok := v.(roundMsg); ok {
		return m.hdr().Seq
	}
	return -1
}

// epochOf reads the Epoch — the fence primitive.
func epochOf(v any) (int64, bool) {
	if m, ok := v.(roundMsg); ok {
		return m.hdr().Epoch, true
	}
	return 0, false
}

// --- serve leg ---

// goodServe reads both guards straight off the header before the
// state-applying dispatch.
func (m *manager) goodServe(ev *Event) {
	var h RoundHdr
	if msg, ok := ev.Data.(roundMsg); ok {
		h = *msg.hdr()
	}
	if h.Epoch < m.fencedEpoch {
		return
	}
	seq := h.Seq
	switch r := ev.Data.(type) {
	case *IncreaseReq:
		m.served[seq] = &IncreaseResp{RoundHdr: RoundHdr{Seq: r.Seq, Epoch: m.fencedEpoch}, OK: true}
	}
}

// goodServeDirect guards the plain type-assert form through the helper
// summaries: both reads dominate the assertion.
func (m *manager) goodServeDirect(ev *Event) {
	if seqOf(ev.Data) <= m.nextSeq {
		return
	}
	if e, ok := epochOf(ev.Data); !ok || e < m.fencedEpoch {
		return
	}
	r, ok := ev.Data.(*IncreaseReq)
	if !ok {
		return
	}
	m.count++
	_ = r
}

// badServeNoFence dedupes but never fence-checks.
func (m *manager) badServeNoFence(ev *Event) {
	seq := seqOf(ev.Data)
	switch ev.Data.(type) { // want "epoch fence-check"
	case *IncreaseReq:
		m.served[seq] = nil
	}
}

// badServeNoDedupe fence-checks but never dedupes.
func (m *manager) badServeNoDedupe(ev *Event) {
	if e, ok := epochOf(ev.Data); ok && e < m.fencedEpoch {
		return
	}
	switch ev.Data.(type) { // want "Seq dedupe guard"
	case *IncreaseReq:
		m.count++
	}
}

// badServeOneBranch guards on the replay branch only; the must-join
// kills both facts.
func (m *manager) badServeOneBranch(ev *Event, replay bool) {
	if replay {
		seq := seqOf(ev.Data)
		if e, ok := epochOf(ev.Data); ok && e < seq {
			return
		}
	}
	switch ev.Data.(type) { // want "Seq dedupe guard" "epoch fence-check"
	case *IncreaseReq:
		m.count++
	}
}

// kindOf dispatches without applying state: no obligations.
func kindOf(v any) string {
	switch v.(type) {
	case *IncreaseReq:
		return "inc"
	default:
		return "?"
	}
}

// shardServe dispatches a shard-relay message: not a round, no
// obligations.
func (m *manager) shardServe(ev *Event) {
	switch ev.Data.(type) {
	case *StealReq:
		m.count++
	}
}

// badAssert applies state around an unguarded round type assertion.
func (m *manager) badAssert(ev *Event) {
	r, ok := ev.Data.(*IncreaseResp) // want "Seq dedupe guard" "epoch fence-check"
	if ok {
		m.count++
	}
	_ = r
}

// pump is the audited exception: a Notice pump that dedupes per source
// inside the arm, with downstream rounds fenced on their own.
func (m *manager) pump(ev *Event) {
	//iocheck:allow roundflow fixture: notice pump dedupes per-source inside the arm; downstream rounds are fenced on issue
	switch d := ev.Data.(type) {
	case *PingNotice:
		if cur, ok := m.seen[d.Seq]; !ok || d.Seq > cur {
			m.seen[d.Seq] = d.Seq
		}
	}
}

// --- issue leg ---

// goodIssue registers the deadline and retry budget before the send.
func (m *manager) goodIssue() {
	req := &IncreaseReq{N: 1}
	req.Epoch = m.fencedEpoch
	timeout := m.policy.CallTimeout
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		ev := &Event{Type: "inc", Data: req}
		m.out.Submit(ev)
		timeout *= 2
	}
	_ = timeout
}

// badIssueNoDeadline retries but never bounds the wait.
func (m *manager) badIssueNoDeadline() {
	req := &IncreaseReq{}
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		m.out.Submit(&Event{Type: "inc", Data: req}) // want "no deadline registered"
	}
}

// badIssueNoRetries bounds the wait but sends outside a retry budget.
// The request parameter is tracked through its header stamp.
func (m *manager) badIssueNoRetries(req roundReq) {
	h := req.hdr()
	h.Epoch = m.fencedEpoch
	deadline := m.policy.CallTimeout
	ev := &Event{Type: req.kind(), Data: req}
	m.out.Submit(ev) // want "no retry budget"
	_ = deadline
}

// badIssueViaSink: the send happens through an event-data sink callee.
func (m *manager) badIssueViaSink() {
	req := &IncreaseReq{}
	m.out.send(req) // want "no deadline registered" "no retry budget"
}

// --- passed-request leg ---

// takeResp pops the next delivered response, if any.
func (m *manager) takeResp() any {
	if len(m.inbox) == 0 {
		return nil
	}
	v := m.inbox[0]
	m.inbox = m.inbox[1:]
	return v
}

// call is the budgeted issuer: it stamps the request's header and owns
// the deadline, the retries, the send, and the seq-matched response
// filter.
func (m *manager) call(req roundReq) any {
	m.nextSeq++
	h := req.hdr()
	h.Seq, h.Epoch = m.nextSeq, m.fencedEpoch
	deadline := m.policy.CallTimeout
	for attempt := int64(0); attempt <= m.policy.CallRetries; attempt++ {
		ev := &Event{Type: req.kind(), Data: req}
		m.out.Submit(ev)
		if got := m.takeResp(); got != nil && seqOf(got) == m.nextSeq {
			return got
		}
		deadline *= 2
	}
	return nil
}

// fire enqueues the request with no budget anywhere.
func (m *manager) fire(req roundReq) {
	m.inbox = append(m.inbox, req)
}

// goodPassed hands the Req literal to the budgeted caller.
func (m *manager) goodPassed(n int) {
	m.call(&IncreaseReq{N: n})
}

// badPassed hands the Req to a callee that never registers a budget.
func (m *manager) badPassed(n int) {
	m.fire(&IncreaseReq{N: n}) // want "never registers"
}

// goodAssertOnCall asserts directly on the budgeted caller's result: the
// callee's own dedupe/fence summaries guard the dispatch, because the
// call evaluates before the assertion.
func (m *manager) goodAssertOnCall(n int) {
	resp, _ := m.call(&IncreaseReq{N: n}).(*IncreaseResp)
	if resp != nil && resp.OK {
		m.count++
	}
}
