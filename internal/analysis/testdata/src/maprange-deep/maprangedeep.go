// Package maprangedeep is a golden-file fixture for the call-graph half
// of the maprange analyzer: sinks reached from a map-range body only
// through helpers.
package maprangedeep

import "fmt"

// Stone is the fixture's order-bearing sink holder.
type Stone struct{ sent []int }

// Submit is in the orderSinks set by name.
func (s *Stone) Submit(v int) { s.sent = append(s.sent, v) }

// String formats what the stone has sent; it carries no order.
func (s *Stone) String() string { return fmt.Sprint(s.sent) }

// emit hides the sink one call down, out of sight of the loop body.
func emit(s *Stone, v int) { s.Submit(v) }

// relay hides it two calls down; the witness chain names the path.
func relay(s *Stone, v int) { emit(s, v) }

// bad reaches Submit through one helper from the range body.
func bad(stones map[int]*Stone) {
	for k, s := range stones {
		emit(s, k) // want "reaches an order-bearing side effect (emit → s.Submit)"
	}
}

// badDeep reaches it through two hops.
func badDeep(stones map[int]*Stone) {
	for k, s := range stones {
		relay(s, k) // want "reaches an order-bearing side effect (relay → emit → s.Submit)"
	}
}

// good: pure computation in the body is fine.
func good(stones map[int]*Stone) int {
	n := 0
	for range stones {
		n++
	}
	return n
}

// audited: the signal is idempotent per key, so delivery order cannot be
// observed; the audit records why.
func audited(stones map[int]*Stone) {
	for k, s := range stones {
		//iocheck:allow maprange fixture: the grant signal is idempotent per key, audited
		emit(s, k)
	}
}
