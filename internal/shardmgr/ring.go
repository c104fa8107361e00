// Package shardmgr holds the pure placement logic for the sharded
// control plane: a seeded consistent-hash ring that assigns containers
// to shards, and a Directory that tracks which shard owns which
// container and which staging node, including cross-shard steal
// accounting. Nothing here touches the simulator or the runtime — the
// package is deliberately dependency-free so the placement properties
// (same seed → same assignment, every shard owns some containers) are
// testable in isolation.
package shardmgr

import (
	"sort"
	"strconv"
)

// vnodesPerShard is the number of virtual points each shard contributes
// to the ring. More vnodes smooth the distribution.
const vnodesPerShard = 128

// Ring is a seeded consistent-hash ring mapping container names to
// shard IDs. The same (seed, shard count) always produces the same
// assignment.
type Ring struct {
	seed   int64
	points []point // sorted by hash
}

type point struct {
	hash  uint64
	shard int
}

// NewRing builds a ring with shards 0..shards-1.
func NewRing(seed int64, shards int) *Ring {
	r := &Ring{seed: seed}
	for i := 0; i < shards; i++ {
		r.addPoints(i)
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
