// Package maprangeseeded is a seeded-bug fixture for maprange: a
// distilled copy of core's GlobalManager.closeBridges with the sort taken
// out. The bridges close in Go's randomized map order, so the shutdown
// events of two runs of one seed interleave differently.
package maprangeseeded

// Stone stands in for an evpath stone with an outgoing bridge.
type Stone struct{ closed bool }

// CloseBridge closes the bridge's queue; its backlog still drains.
func (s *Stone) CloseBridge() { s.closed = true }

// GlobalManager is the part of core.GlobalManager shutdown touches.
type GlobalManager struct {
	toContainer map[string]*Stone
	toStandby   *Stone
	toMeta      *Stone
}

// closeBridges closes the manager's outgoing bridges at shutdown.
func (gm *GlobalManager) closeBridges() {
	for _, b := range gm.toContainer { // want "loop body calls b.CloseBridge"
		b.CloseBridge()
	}
	if gm.toStandby != nil {
		gm.toStandby.CloseBridge()
	}
	if gm.toMeta != nil {
		gm.toMeta.CloseBridge()
	}
}
