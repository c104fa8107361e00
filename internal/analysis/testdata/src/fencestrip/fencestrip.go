// Package fencestrip is the chaos cross-check fixture for roundflow: a
// distilled copy of the container manager's serve loop, with the epoch
// fence guard the split-brain fix added sitting directly above the serve
// dispatch. The companion test verifies the loop is clean as written,
// then strips the guard block and asserts roundflow reports the missing
// fence at the guard's own line.
package fencestrip

type Event struct {
	Type string
	Data any
}

// RoundHdr is the round header; embedding it makes a round message.
type RoundHdr struct{ Seq, Epoch int64 }

func (h *RoundHdr) hdr() *RoundHdr { return h }

type roundMsg interface{ hdr() *RoundHdr }

type IncreaseReq struct {
	RoundHdr
	N int
}

type IncreaseResp struct {
	RoundHdr
	Size int
}

type queue struct{ q []*Event }

func (q *queue) Recv() *Event {
	if len(q.q) == 0 {
		return nil
	}
	ev := q.q[0]
	q.q = q.q[1:]
	return ev
}

type manager struct {
	fencedEpoch int64
	served      map[int64]roundMsg
	size        int
	out         []*Event
}

func (m *manager) reply(resp any) {
	m.out = append(m.out, &Event{Type: "resp", Data: resp})
}

// serveLoop is the distilled manager loop: read the round header once,
// dedupe retried rounds from the served cache, refuse rounds from deposed
// manager epochs, then serve and stamp the response header.
func (m *manager) serveLoop(in *queue) {
	for {
		ev := in.Recv()
		if ev == nil {
			return
		}
		var h RoundHdr
		msg, isRound := ev.Data.(roundMsg)
		if isRound {
			h = *msg.hdr()
		}
		if cached, dup := m.served[h.Seq]; isRound && dup {
			m.reply(cached)
			continue
		}
		var resp roundMsg
		if e := h.Epoch; isRound {
			if e < m.fencedEpoch {
				continue
			}
			if e > m.fencedEpoch {
				m.fencedEpoch = e
			}
		}
		switch req := ev.Data.(type) {
		case *IncreaseReq:
			m.size += req.N
			resp = &IncreaseResp{Size: m.size}
		default:
			return
		}
		rh := resp.hdr()
		rh.Seq, rh.Epoch = h.Seq, m.fencedEpoch
		m.served[h.Seq] = resp
		m.reply(resp)
	}
}
