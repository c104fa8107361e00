package shardmgr

import (
	"fmt"
	"testing"
)

func assignAll(r *Ring, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = r.Assign(n)
	}
	return out
}

func containerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("stage-%04d", i)
	}
	return names
}

// Same seed, same shard count → same assignment.
func TestRingDeterministic(t *testing.T) {
	names := containerNames(500)
	a := assignAll(NewRing(42, 8), names)
	b := assignAll(NewRing(42, 8), names)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42: %s assigned to %d then %d", names[i], a[i], b[i])
		}
	}
	// Different seed → different assignment (sanity, not a guarantee per
	// name; assert at least one container moves).
	d := assignAll(NewRing(43, 8), names)
	moved := 0
	for i := range a {
		if a[i] != d[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("seed change moved nothing: ring ignores its seed")
	}
}

// Every shard gets a nonempty arc at realistic sizes, so no manager
// idles while others are overloaded.
func TestRingCoverage(t *testing.T) {
	names := containerNames(1000)
	r := NewRing(7, 100)
	got := make(map[int]int)
	for _, s := range assignAll(r, names) {
		got[s]++
	}
	for shard := 0; shard < 100; shard++ {
		if got[shard] == 0 {
			t.Fatalf("shard %d owns no containers at n=1000", shard)
		}
	}
}
