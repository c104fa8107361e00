package iocontainer

import (
	"testing"

	"repro/internal/analysis"
)

// BenchmarkIocheckModule is the wall-time budget for `iocheck ./...` on
// the warm, memoized path: the per-process stdlib memo is filled before
// the timer starts, so one iteration parses and type-checks the module's
// own packages and runs the three syntactic rules (simtime, maprange,
// dropresult). It rides in `make bench` so a regression in module loading
// or in a rule's walk shows up in BENCH_baseline.json next to the
// scenario benchmarks.
// BenchmarkLoadModuleCold in internal/analysis covers the cold stdlib
// path the memo hides.
func BenchmarkIocheckModule(b *testing.B) {
	root := warmModuleRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		diags := analysis.Run(pkgs, analysis.Analyzers())
		if n := len(analysis.Unsuppressed(diags)); n != 0 {
			b.Fatalf("module has %d unsuppressed findings", n)
		}
	}
}

// warmModuleRoot returns the module root after one untimed LoadModule, so
// the per-process stdlib memo is full before a benchmark's timer starts.
func warmModuleRoot(b *testing.B) string {
	b.Helper()
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := analysis.LoadModule(root); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return root
}
