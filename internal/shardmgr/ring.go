// Package shardmgr holds the pure placement logic for the sharded
// control plane: a seeded consistent-hash ring that assigns containers
// to shards, and a Directory that tracks which shard owns which
// container and which staging node, including cross-shard steal
// accounting. Nothing here touches the simulator or the runtime — the
// package is deliberately dependency-free so the placement properties
// (same seed → same assignment, minimal movement on shard add/remove)
// are testable in isolation.
package shardmgr

import (
	"sort"
	"strconv"
)

// vnodesPerShard is the number of virtual points each shard contributes
// to the ring. More vnodes smooth the distribution and tighten the
// bound on how many containers move when a shard is added.
const vnodesPerShard = 128

// Ring is a seeded consistent-hash ring mapping container names to
// shard IDs. The same (seed, shard set) always produces the same
// assignment; adding or removing a shard only moves the containers
// whose arc changed hands.
type Ring struct {
	seed   int64
	shards map[int]bool
	points []point // sorted by hash
}

type point struct {
	hash  uint64
	shard int
}

// NewRing builds a ring with shards 0..shards-1.
func NewRing(seed int64, shards int) *Ring {
	r := &Ring{seed: seed, shards: make(map[int]bool, shards)}
	for i := 0; i < shards; i++ {
		r.addPoints(i)
		r.shards[i] = true
	}
	r.sortPoints()
	return r
}

// fnv1a is a seeded FNV-1a 64-bit hash; hand-rolled so the ring has no
// dependency beyond the standard library and the seed folds into the
// initial state rather than the key bytes.
func fnv1a(seed int64, key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ uint64(seed)*prime
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return mix(h)
}

// mix is the splitmix64 finalizer. Raw FNV-1a has weak avalanche in the
// high bits, which the ring's full-width ordering exposes as clustered
// arcs; the finalizer spreads them.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (r *Ring) addPoints(shard int) {
	label := "shard-" + strconv.Itoa(shard) + "#"
	for v := 0; v < vnodesPerShard; v++ {
		h := fnv1a(r.seed, label+strconv.Itoa(v))
		r.points = append(r.points, point{hash: h, shard: shard})
	}
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on shard ID so the ring
		// order never depends on insertion order.
		return r.points[i].shard < r.points[j].shard
	})
}

// AddShard inserts a shard's vnodes into the ring. Adding an existing
// shard is a no-op.
func (r *Ring) AddShard(shard int) {
	if r.shards[shard] {
		return
	}
	r.shards[shard] = true
	r.addPoints(shard)
	r.sortPoints()
}

// RemoveShard deletes a shard's vnodes. Containers that hashed to its
// arcs fall through to the next point; everyone else keeps their shard.
func (r *Ring) RemoveShard(shard int) {
	if !r.shards[shard] {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Shards returns the live shard IDs in ascending order.
func (r *Ring) Shards() []int {
	out := make([]int, 0, len(r.shards))
	for id := range r.shards {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Assign maps a container name to its shard. Panics on an empty ring.
func (r *Ring) Assign(name string) int {
	if len(r.points) == 0 {
		panic("shardmgr: assign on empty ring")
	}
	h := fnv1a(r.seed, name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].shard
}

// AssignAll maps every name and returns the assignment in input order.
func (r *Ring) AssignAll(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = r.Assign(n)
	}
	return out
}
