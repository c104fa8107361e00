package shardmgr

import "sort"

// Directory is the control plane's ownership ledger: which shard owns
// each container (fixed at build time by the ring) and each staging
// node (mutable — cross-shard steals rehome nodes). It also keeps the
// per-shard steal counters the summary table and oracles read.
//
// The Directory is plain bookkeeping: it never initiates transfers, it
// only records what the managers did, so the no-dual-ownership oracle
// can audit the managers against it.
type Directory struct {
	containerShard map[string]int
	nodeShard      map[int]int
	stolenIn       map[int]int
	stolenOut      map[int]int
}

// NewDirectory snapshots the ring's assignment for the given container
// names.
func NewDirectory(ring *Ring, containers []string) *Directory {
	d := &Directory{
		containerShard: make(map[string]int, len(containers)),
		nodeShard:      make(map[int]int),
		stolenIn:       make(map[int]int),
		stolenOut:      make(map[int]int),
	}
	for _, name := range containers {
		d.containerShard[name] = ring.Assign(name)
	}
	return d
}

// ShardOf returns the shard owning the named container (-1 unknown).
func (d *Directory) ShardOf(container string) int {
	if s, ok := d.containerShard[container]; ok {
		return s
	}
	return -1
}

// SetShardOf pins a container to a shard (used for containers created
// outside the ring assignment, e.g. the checkpoint container).
func (d *Directory) SetShardOf(container string, shard int) {
	d.containerShard[container] = shard
}

// NodeShard returns the shard owning a staging node (-1 unknown).
func (d *Directory) NodeShard(node int) int {
	if s, ok := d.nodeShard[node]; ok {
		return s
	}
	return -1
}

// SetNodeShard records a staging node's owning shard. Steal grants call
// this at node release time, so a node in flight belongs to nobody.
func (d *Directory) SetNodeShard(node, shard int) {
	d.nodeShard[node] = shard
}

// RecordSteal bumps the per-shard steal counters for n nodes moving
// from donor to beneficiary.
func (d *Directory) RecordSteal(donor, beneficiary, n int) {
	d.stolenOut[donor] += n
	d.stolenIn[beneficiary] += n
}

// Steals returns how many nodes a shard has received and donated.
func (d *Directory) Steals(shard int) (in, out int) {
	return d.stolenIn[shard], d.stolenOut[shard]
}

// PickDonor chooses the shard to steal from: the largest advertised
// spare pool wins, ties break on the lowest shard ID, and the
// requester is never its own donor. Returns -1 when no shard has
// spares. spares maps shard → advertised free-node count.
func PickDonor(spares map[int]int, requester int) int {
	best, bestN := -1, 0
	ids := make([]int, 0, len(spares))
	for id := range spares {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if id == requester {
			continue
		}
		if n := spares[id]; n > bestN {
			best, bestN = id, n
		}
	}
	return best
}
