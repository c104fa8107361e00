package cluster

import "repro/internal/sim"

// The interconnect model charges each transfer
//
//	latency(hops) + size/bandwidth
//
// while serializing on the sender's NIC injection port and the receiver's
// ejection port (separate tx/rx resources, so opposing transfers cannot
// deadlock). This is a store-and-forward approximation: good enough to
// reproduce the paper's message-round protocol costs and queueing shapes
// without per-flit detail.
//
// When a fault schedule is attached, transfers consult it: a crashed or
// partitioned endpoint loses the message (the sender still pays the wire
// time it spent), and link-degradation windows scale latency and bandwidth.
// Send and RDMAGet report delivery so callers can react; existing callers
// that predate fault injection ignore the result, which is correct in
// fault-free runs (delivery never fails without a schedule).

// latencyBetween returns the wire latency between two nodes under the
// configured topology.
func (m *Machine) latencyBetween(from, to int) sim.Time {
	lat := m.cfg.LinkLatency
	if m.cfg.Topology != nil {
		hops := m.cfg.Topology.Hops(from, to)
		if hops > 1 {
			lat += sim.Time(hops-1) * m.cfg.PerHopLatency
		}
		if hops == 0 {
			return 0 // intra-node
		}
	} else if from == to {
		return 0
	}
	if f := m.faults.LatencyFactor(); f != 1 {
		lat = sim.Time(float64(lat) * f)
	}
	return lat
}

// transferTime returns size/bandwidth for the configured NIC rate, scaled
// by any active link-degradation window.
func (m *Machine) transferTime(size int64) sim.Time {
	if size <= 0 {
		return 0
	}
	bytesPerSec := m.cfg.LinkBandwidthMBps * 1024 * 1024
	if f := m.faults.SlowdownFactor(); f > 1 {
		bytesPerSec /= f
	}
	return sim.Time(float64(size) / bytesPerSec * float64(sim.Second))
}

// Send moves size bytes from node `from` to node `to`, blocking p for the
// full transfer duration. Intra-node sends cost only a memcpy-scale time.
// It reports whether the message was delivered: a dead sender sends
// nothing, and a message bound for a dead or partitioned node is lost at
// the wire after the sender has paid for injection. [Transfer] walks the
// same phases as a chain of engine events, for callers without a process.
func (m *Machine) Send(p *sim.Proc, from, to int, size int64) bool {
	start := m.eng.Now()
	if !m.senderUp(from) {
		return false
	}
	if from == to {
		// Intra-node: charge memory-bandwidth-scale copy (10x NIC rate).
		p.Sleep(m.transferTime(size) / 10)
		m.account(size, m.eng.Now()-start)
		return true
	}
	src, dst := &m.nodes[from], &m.nodes[to]
	src.tx.Acquire(p, 1)
	p.Sleep(m.transferTime(size))
	src.tx.Release(1)
	p.Sleep(m.latencyBetween(from, to))
	if !m.arrives(from, to, size, start) {
		return false
	}
	dst.rx.Acquire(p, 1)
	p.Sleep(m.transferTime(size))
	dst.rx.Release(1)
	m.account(size, m.eng.Now()-start)
	return true
}

// RDMAGet models a one-sided pull: p (running at node `reader`) sends a
// small request to `target` and the data flows back. This is DataTap's
// fetch primitive: the reader schedules the get when it is ready. It
// reports whether the pull completed; a dead or partitioned target cannot
// serve the buffer, and the reader learns after the request latency.
func (m *Machine) RDMAGet(p *sim.Proc, reader, target int, size int64) bool {
	start := m.eng.Now()
	if !m.senderUp(reader) {
		return false
	}
	if reader == target {
		p.Sleep(m.transferTime(size) / 10)
		m.account(size, m.eng.Now()-start)
		return true
	}
	// Request message (64-byte descriptor).
	p.Sleep(m.latencyBetween(reader, target) + m.transferTime(64))
	if !m.arrives(reader, target, 64, start) {
		return false
	}
	// Response: serialized on target's tx port and reader's rx port.
	src, dst := &m.nodes[target], &m.nodes[reader]
	src.tx.Acquire(p, 1)
	p.Sleep(m.transferTime(size))
	src.tx.Release(1)
	p.Sleep(m.latencyBetween(target, reader))
	dst.rx.Acquire(p, 1)
	p.Sleep(m.transferTime(size))
	dst.rx.Release(1)
	m.account(size+64, m.eng.Now()-start)
	return true
}

// senderUp reports whether node from can send at all; a dead sender's
// attempt is counted as a failed send.
func (m *Machine) senderUp(from int) bool {
	if m.faults.NodeUp(from) {
		return true
	}
	m.faults.NoteSendFailed()
	return false
}

// arrives reports whether a message of size bytes that left `from` at
// start, and has now crossed the wire, reaches `to`. A message for a dead
// or partitioned node is lost here: it is accounted (the wire time was
// spent) and counted as a failed send.
func (m *Machine) arrives(from, to int, size int64, start sim.Time) bool {
	if m.faults.NodeUp(to) && !m.faults.Partitioned(from, to) {
		return true
	}
	m.account(size, m.eng.Now()-start)
	m.faults.NoteSendFailed()
	return false
}

func (m *Machine) account(bytes int64, d sim.Time) {
	m.stats.Messages++
	m.stats.Bytes += bytes
	m.stats.TotalTime += d
}
