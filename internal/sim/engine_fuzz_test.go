package sim

import (
	"math"
	"testing"
)

// Operation codes for FuzzEngineOrder. The input is a sequence of
// (op, arg) byte pairs: op%8 picks the operation and op>>3 is a five-bit
// parameter.
const (
	orderSchedSmall = iota // schedule at now + arg (arg 0: the current instant)
	orderSchedSame         // schedule at the time of pending event arg
	orderSchedPow2         // schedule at the 2^(arg%63) boundary above now, or one before it (param bit 0)
	orderSchedLarge        // schedule at now + (arg+1)<<(param+20); param 31: at the largest Time
	orderSchedChain        // schedule at now + arg%16 an event that schedules a child arg>>4 later
	orderStep              // run up to param+1 events
	orderRunUntil          // run to now + arg<<param
	orderRun               // run until no events remain
)

// orderMaxOps bounds one input's operations, which keeps the reference's
// quadratic scans fast.
const orderMaxOps = 512

// FuzzEngineOrder drives a bare engine through decoded schedule, Step,
// RunUntil and Run sequences and checks its event order against a
// brute-force reference: every executed event must be the (at, seq)
// minimum of the reference's pending set, run with the clock at its time,
// and after every operation Pending must match the reference's count.
// The scheduled times favour the queue's edge cases: the current instant,
// times equal to a pending event's, 2^k boundaries, times far ahead, and
// RunUntil stopping short of the next event before more are scheduled
// below it.
//
// The seed corpus lives in testdata/fuzz/FuzzEngineOrder.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(runEngineOrderOps)
}

// orderKey is one scheduled event in the reference: its time and its
// schedule order.
type orderKey struct {
	at  Time
	seq uint64
}

// orderModel is the brute-force reference FuzzEngineOrder checks the
// engine against.
type orderModel struct {
	t       *testing.T
	e       *Engine
	seq     uint64
	pending []orderKey
}

// schedule schedules an event at at on the engine and in the reference.
// When it runs, an event with child ≥ 0 schedules another child later.
func (m *orderModel) schedule(at, child Time) {
	if at < m.e.Now() {
		at = m.e.Now() // the engine clamps the past to now, as does an overflowed sum
	}
	m.seq++
	k := orderKey{at, m.seq}
	m.pending = append(m.pending, k)
	m.e.At(at, func() { m.fired(k, child) })
}

// fired checks that k is the reference's earliest pending event and
// retires it.
func (m *orderModel) fired(k orderKey, child Time) {
	lo := 0
	for i, p := range m.pending {
		if p.at < m.pending[lo].at || p.at == m.pending[lo].at && p.seq < m.pending[lo].seq {
			lo = i
		}
	}
	if len(m.pending) == 0 || m.pending[lo] != k {
		m.t.Fatalf("ran event (at %d, seq %d); reference pending %v", k.at, k.seq, m.pending)
	}
	if m.e.Now() != k.at {
		m.t.Fatalf("event due at %d ran with the clock at %d", k.at, m.e.Now())
	}
	m.pending = append(m.pending[:lo], m.pending[lo+1:]...)
	if child >= 0 {
		m.schedule(m.e.Now()+child, -1)
	}
}

// runEngineOrderOps decodes and executes one FuzzEngineOrder input.
func runEngineOrderOps(t *testing.T, data []byte) {
	if len(data) > 2*orderMaxOps {
		data = data[:2*orderMaxOps]
	}
	m := &orderModel{t: t, e: NewEngine(1)}
	e := m.e
	for i := 0; i+1 < len(data); i += 2 {
		op, param, arg := data[i]%8, data[i]>>3, data[i+1]
		switch op {
		case orderSchedSmall:
			m.schedule(e.Now()+Time(arg), -1)
		case orderSchedSame:
			at := e.Now()
			if len(m.pending) > 0 {
				at = m.pending[int(arg)%len(m.pending)].at
			}
			m.schedule(at, -1)
		case orderSchedPow2:
			k := arg % 63
			m.schedule((e.Now()>>k+1)<<k-Time(param&1), -1)
		case orderSchedLarge:
			at := e.Now() + (Time(arg)+1)<<(param+20)
			if param == 31 {
				at = math.MaxInt64
			}
			m.schedule(at, -1)
		case orderSchedChain:
			m.schedule(e.Now()+Time(arg%16), Time(arg>>4))
		case orderStep:
			for n := int(param) + 1; n > 0; n-- {
				want := len(m.pending) > 0
				if got := e.Step(); got != want {
					t.Fatalf("op %d: Step = %v with %d pending in the reference", i/2, got, len(m.pending))
				}
			}
		case orderRunUntil:
			to := e.Now() + Time(arg)<<param
			want := max(e.Now(), to)
			e.RunUntil(to)
			if e.Now() != want {
				t.Fatalf("op %d: RunUntil(%d) left the clock at %d, want %d", i/2, to, e.Now(), want)
			}
			for _, p := range m.pending {
				if p.at <= to {
					t.Fatalf("op %d: RunUntil(%d) left event (at %d, seq %d) pending", i/2, to, p.at, p.seq)
				}
			}
		case orderRun:
			e.Run()
		}
		if got := e.Pending(); got != len(m.pending) {
			t.Fatalf("op %d: Pending = %d, reference %d", i/2, got, len(m.pending))
		}
	}
	e.Run()
	if len(m.pending) != 0 || e.Pending() != 0 {
		t.Fatalf("after Run: %d pending in the reference, %d in the engine", len(m.pending), e.Pending())
	}
}
