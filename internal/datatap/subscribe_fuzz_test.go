package datatap

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// Operation codes for FuzzSubHubCursors. After the config byte, the input
// is a sequence of (op, arg) byte pairs: op%8 picks the operation, the low
// three bits of arg pick the subscriber, and arg>>4 is how many engine
// events to run after the operation (so crashes and publishes can land
// while a subscriber is mid-fetch).
const (
	fuzzSubscribe = iota
	fuzzPublish
	fuzzFetch
	fuzzCrash
	fuzzResume
	fuzzReplay
	fuzzClose
	fuzzDrain // run the engine until no events remain
)

// fuzzMaxSubs bounds the fleet so every subscriber stays addressable by
// the three-bit selector.
const fuzzMaxSubs = 8

// FuzzSubHubCursors drives a SubHub on a bare engine (no cluster, so no
// transfer costs) through decoded Subscribe / Publish / Fetch / Crash /
// Resume / Replay / Close sequences, with spill on and off. Each Fetch op
// grants its subscriber one more fetch; grants are consumed one at a
// time, the next from the previous fetch's done callback. After every
// operation and every engine event it checks that the cached reclaim
// watermark matches a brute-force minimum over all cursors and that
// every subscriber's conservation ledger balances. The teardown then
// drains every subscriber and checks that each ends at the live edge.
//
// Config byte: bits 0-1 BufCap-1, bits 2-4 TailCap-1, bit 7 DisableSpill.
// The seed corpus lives in testdata/fuzz/FuzzSubHubCursors.
func FuzzSubHubCursors(f *testing.F) {
	f.Fuzz(runSubHubOps)
}

// runSubHubOps decodes and executes one FuzzSubHubCursors input.
func runSubHubOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	cfg := SubConfig{
		BufCap:       1 + int(data[0]&3),
		TailCap:      1 + int(data[0]>>2&7),
		DisableSpill: data[0]&0x80 != 0,
	}
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, nil, "fuzz", Config{})
	h := ch.AttachHub(cfg)
	var fetchers []*fuzzFetcher
	var step int64
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		var sub *Subscriber
		var f *fuzzFetcher
		if len(h.order) > 0 {
			k := int(arg&7) % len(h.order)
			sub, f = h.order[k], fetchers[k]
		}
		what := "op " + strconv.Itoa(i/2)
		switch op {
		case fuzzSubscribe:
			if len(h.order) == fuzzMaxSubs {
				break
			}
			s := h.Subscribe("s"+strconv.Itoa(len(h.order)), 0)
			fetchers = append(fetchers, &fuzzFetcher{s: s})
		case fuzzPublish:
			step++
			h.Publish(&Meta{Step: step, Size: 1 << 10})
		case fuzzFetch:
			if f != nil {
				f.pending++
				f.next()
			}
		case fuzzCrash:
			if sub != nil {
				h.Crash(sub.ID())
			}
		case fuzzResume:
			if sub != nil {
				h.Resume(sub.ID())
			}
		case fuzzReplay:
			if sub != nil {
				h.Replay(sub.ID(), sub.cursor)
			}
		case fuzzClose:
			ch.Close()
		case fuzzDrain:
			for eng.Step() {
				checkSubHubInvariants(t, h, what+" drain")
			}
		}
		checkSubHubInvariants(t, h, what)
		for n := arg >> 4; n > 0 && eng.Step(); n-- {
			checkSubHubInvariants(t, h, what+" step")
		}
	}
	// Tear down: close the hub, revive crashed subscribers and grant
	// every subscriber fetches until it drains. Each must end at the live
	// edge with nothing staged, parked or in flight.
	ch.Close()
	for i, s := range h.order {
		h.Resume(s.ID())
		fetchers[i].pending = math.MaxInt
		fetchers[i].next()
	}
	for eng.Step() {
		checkSubHubInvariants(t, h, "teardown")
	}
	for i, s := range h.order {
		if !fetchers[i].drained {
			t.Fatalf("subscriber %s never drained", s.ID())
		}
		if s.cursor != h.pubSeq+1 || s.bufLen != 0 || s.parked || s.phase != subIdle || s.done != nil {
			t.Fatalf("subscriber %s left undrained: cursor %d of %d published, %d staged, parked %v, phase %d",
				s.ID(), s.cursor, h.pubSeq, s.bufLen, s.parked, s.phase)
		}
	}
	if b := eng.Blocked(); len(b) != 0 {
		t.Fatalf("processes still parked after close: %v", b)
	}
}

// fuzzFetcher holds one subscriber's pending fetch grants and spends them
// one at a time.
type fuzzFetcher struct {
	s       *Subscriber
	pending int
	busy    bool // a fetch is outstanding
	drained bool // a fetch reported the hub closed and drained
}

// next spends one pending grant on a fetch, unless one is outstanding.
func (f *fuzzFetcher) next() {
	if f.busy || f.drained || f.pending == 0 {
		return
	}
	f.pending--
	f.busy = true
	f.s.FetchThen(f.fetched)
}

func (f *fuzzFetcher) fetched(_ *Meta, ok bool) {
	f.busy = false
	if !ok {
		f.drained = true
		return
	}
	f.next()
}

// checkSubHubInvariants asserts the cached watermark against a brute-force
// scan and audits every subscriber's ledger.
func checkSubHubInvariants(t *testing.T, h *SubHub, what string) {
	t.Helper()
	want, on := h.pubSeq+1, 0
	for _, s := range h.order {
		switch {
		case s.cursor < want:
			want, on = s.cursor, 1
		case s.cursor == want:
			on++
		}
	}
	if got := h.minCursor(); got != want {
		t.Fatalf("%s: watermark %d, brute-force min %d", what, got, want)
	}
	if len(h.order) > 0 && h.nLow != on {
		t.Fatalf("%s: %d subscribers cached on watermark %d, brute force finds %d", what, h.nLow, want, on)
	}
	if st := h.Stats(); st.WatermarkScans > st.Published {
		t.Fatalf("%s: %d watermark scans for %d published", what, st.WatermarkScans, st.Published)
	}
	for _, snap := range h.Snapshots() {
		if u := snap.Unaccounted(); u != 0 {
			t.Fatalf("%s: subscriber %s unaccounted %d: %+v", what, snap.ID, u, snap)
		}
	}
}
