package shardmgr

import "testing"

func TestDirectoryOwnership(t *testing.T) {
	names := containerNames(20)
	ring := NewRing(5, 4)
	d := NewDirectory(ring, names)
	for _, name := range names {
		if got, want := d.ShardOf(name), ring.Assign(name); got != want {
			t.Fatalf("ShardOf(%s)=%d, ring says %d", name, got, want)
		}
	}
	if d.ShardOf("nonexistent") != -1 {
		t.Fatalf("unknown container should map to -1")
	}
	d.SetShardOf("checkpoint", 2)
	if d.ShardOf("checkpoint") != 2 {
		t.Fatalf("SetShardOf did not stick")
	}
}

func TestDirectoryNodeLedger(t *testing.T) {
	d := NewDirectory(NewRing(1, 2), nil)
	if d.NodeShard(9) != -1 {
		t.Fatalf("unclaimed node should map to -1")
	}
	d.SetNodeShard(9, 0)
	d.SetNodeShard(10, 1)
	if d.NodeShard(9) != 0 || d.NodeShard(10) != 1 {
		t.Fatalf("node ledger lost an entry")
	}
	d.SetNodeShard(9, 1) // steal rehomes the node
	if d.NodeShard(9) != 1 {
		t.Fatalf("rehome did not stick")
	}
	d.RecordSteal(0, 1, 2)
	if in, out := d.Steals(1); in != 2 || out != 0 {
		t.Fatalf("beneficiary counters = (%d,%d), want (2,0)", in, out)
	}
	if in, out := d.Steals(0); in != 0 || out != 2 {
		t.Fatalf("donor counters = (%d,%d), want (0,2)", in, out)
	}
}

func TestPickDonor(t *testing.T) {
	// Largest pool wins.
	if got := PickDonor(map[int]int{0: 1, 1: 5, 2: 3}, 0); got != 1 {
		t.Fatalf("PickDonor = %d, want 1", got)
	}
	// Ties break on the lowest shard ID.
	if got := PickDonor(map[int]int{3: 4, 1: 4, 2: 4}, 0); got != 1 {
		t.Fatalf("tie break = %d, want 1", got)
	}
	// The requester never donates to itself, even with the biggest pool.
	if got := PickDonor(map[int]int{0: 9, 1: 2}, 0); got != 1 {
		t.Fatalf("self-donation: got %d, want 1", got)
	}
	// All dry → -1.
	if got := PickDonor(map[int]int{0: 0, 1: 0}, 0); got != -1 {
		t.Fatalf("dry pools: got %d, want -1", got)
	}
	// Deterministic across identical calls.
	a := PickDonor(map[int]int{5: 2, 9: 2, 7: 2}, 1)
	for i := 0; i < 16; i++ {
		if b := PickDonor(map[int]int{5: 2, 9: 2, 7: 2}, 1); b != a {
			t.Fatalf("PickDonor nondeterministic: %d then %d", a, b)
		}
	}
}
