package cluster

import "testing"

func TestSplitPoolRoundRobin(t *testing.T) {
	_, m := testMachine(10)
	a, err := m.Allocate(10)
	if err != nil {
		t.Fatal(err)
	}
	pools := SplitPool(a.Nodes(), 3)
	if len(pools) != 3 {
		t.Fatalf("pools=%d, want 3", len(pools))
	}
	// 10 nodes over 3 pools: sizes 4,3,3 and pool i holds nodes i, i+3, ...
	wantSizes := []int{4, 3, 3}
	for i, pool := range pools {
		if len(pool) != wantSizes[i] {
			t.Fatalf("pool %d has %d nodes, want %d", i, len(pool), wantSizes[i])
		}
		for j, n := range pool {
			if want := a.Nodes()[i+j*3]; n != want {
				t.Fatalf("pool %d slot %d: node %d, want %d", i, j, n.ID, want.ID)
			}
		}
	}
}

func TestSplitPoolBalance(t *testing.T) {
	_, m := testMachine(32)
	a, err := m.Allocate(32)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 7; k++ {
		pools := SplitPool(a.Nodes(), k)
		total, min, max := 0, 32, 0
		for _, pool := range pools {
			total += len(pool)
			if len(pool) < min {
				min = len(pool)
			}
			if len(pool) > max {
				max = len(pool)
			}
		}
		if total != 32 {
			t.Fatalf("k=%d: %d nodes distributed, want 32", k, total)
		}
		if max-min > 1 {
			t.Fatalf("k=%d: pool sizes range %d..%d, want within one", k, min, max)
		}
	}
}

func TestSplitPoolEdges(t *testing.T) {
	_, m := testMachine(4)
	a, err := m.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := SplitPool(a.Nodes(), 0); got != nil {
		t.Fatalf("k=0: %v, want nil", got)
	}
	if got := SplitPool(a.Nodes(), -2); got != nil {
		t.Fatalf("k<0: %v, want nil", got)
	}
	pools := SplitPool(nil, 3)
	if len(pools) != 3 {
		t.Fatalf("empty input: %d pools, want 3 empty pools", len(pools))
	}
	for i, pool := range pools {
		if len(pool) != 0 {
			t.Fatalf("empty input: pool %d has %d nodes", i, len(pool))
		}
	}
	// More pools than nodes: the tail pools stay empty.
	pools = SplitPool(a.Nodes(), 6)
	for i, pool := range pools {
		switch {
		case i < 4 && len(pool) != 1:
			t.Fatalf("pool %d has %d nodes, want 1", i, len(pool))
		case i >= 4 && len(pool) != 0:
			t.Fatalf("pool %d has %d nodes, want 0", i, len(pool))
		}
	}
}
