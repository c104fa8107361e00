// Package epochset is a golden-file fixture for the epochset analyzer.
package epochset

// Event is the fixture's stand-in for evpath.Event — the send sink.
type Event struct {
	Type string
	Data any
}

// RoundHdr is the round header; embedding it makes a round message.
type RoundHdr struct{ Seq, Epoch int64 }

func (h *RoundHdr) hdr() *RoundHdr { return h }

// QueryReq is a round-path message: it embeds RoundHdr.
type QueryReq struct {
	RoundHdr
	Name string
}

type bridge struct{ out []*Event }

// send wraps a payload as an Event; its summary marks the parameter as
// an event-data sink.
func (b *bridge) send(data any) {
	b.out = append(b.out, &Event{Type: "req", Data: data})
}

// stampReq assigns Epoch through a helper; its summary stamps the
// parameter.
func stampReq(req *QueryReq, epoch int64) { req.Epoch = epoch }

// stampHdr stamps through the header; its summary stamps the parameter
// too.
func stampHdr(req *QueryReq, epoch int64) {
	h := req.hdr()
	h.Epoch = epoch
}

// good stamps directly before the send.
func good(b *bridge, seq, epoch int64) {
	req := &QueryReq{Name: "bonds"}
	req.Seq, req.Epoch = seq, epoch
	b.send(req)
}

// goodViaHeader stamps through a header alias, the way the servers
// stamp their responses.
func goodViaHeader(b *bridge, seq, epoch int64) {
	req := &QueryReq{}
	h := req.hdr()
	h.Seq, h.Epoch = seq, epoch
	b.send(req)
}

// goodViaHelper: the stamp travels through the callee summaries.
func goodViaHelper(b *bridge, seq, epoch int64) {
	req := &QueryReq{}
	stampReq(req, epoch)
	b.send(req)
	again := &QueryReq{}
	stampHdr(again, epoch)
	b.send(again)
}

// goodLiteral: the literal's header carries the Epoch key, keyed or
// positional.
func goodLiteral(b *bridge, seq, epoch int64) {
	req := &QueryReq{RoundHdr: RoundHdr{Seq: seq, Epoch: epoch}}
	b.send(req)
	pos := &QueryReq{RoundHdr{seq, epoch}, "bonds"}
	b.send(pos)
}

// bad stamps on one branch only — unstamped at the merge.
func bad(b *bridge, seq, epoch int64, retry bool) {
	req := &QueryReq{}
	if retry {
		req.hdr().Epoch = epoch
	}
	b.send(req) // want "without Epoch assigned on every path"
}

// badDirect sets the header's Seq but never its Epoch.
func badDirect(b *bridge, seq int64) {
	req := &QueryReq{RoundHdr: RoundHdr{Seq: seq}}
	b.send(req) // want "without Epoch assigned on every path"
}

// badInline wraps the message in an Event literal without a stamp.
func badInline(seq int64) *Event {
	req := &QueryReq{}
	return &Event{Type: "req", Data: req} // want "without Epoch assigned on every path"
}

// audited: the replay path re-sends a message the dedupe cache already
// stamped, which the analysis cannot see; the audit records why.
func audited(b *bridge, seq int64) {
	req := &QueryReq{}
	//iocheck:allow epochset fixture: replay re-sends a cached pre-stamped message, audited
	b.send(req)
}
