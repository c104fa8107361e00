package sim

import "math/rand"

// Rand is the engine's deterministic random source. It wraps math/rand with
// the uniform duration ranges the machine and cost models use.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform int in [0,n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int { return r.r.Perm(n) }

// Uniform returns a uniform duration in [lo,hi].
func (r *Rand) Uniform(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.r.Int63n(int64(hi-lo)+1))
}
