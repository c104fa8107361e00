package cluster

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSendThroughput measures simulated message processing rate.
func BenchmarkSendThroughput(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	cfg := Franklin()
	cfg.Nodes = 4
	m := New(eng, cfg)
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			m.Send(p, 0, 1, 4096)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkTorusHops measures the topology distance kernel.
func BenchmarkTorusHops(b *testing.B) {
	t := NewTorus3D(16, 16, 16)
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += t.Hops(i%4096, (i*2654435761)%4096)
	}
	_ = sum
}
