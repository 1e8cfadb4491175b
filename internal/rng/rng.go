// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the NEBULA simulator.
//
// Every stochastic component in the repository (dataset synthesis, weight
// initialization, Poisson spike encoding, device noise, Monte-Carlo
// variation studies) draws from this package rather than math/rand so that
// experiments are reproducible bit-for-bit across runs and platforms.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as
// recommended by its authors. Generators can be split into independent
// streams with Split, which is how parallel workers obtain decorrelated
// randomness without sharing state.
//
// # Concurrency
//
// A Rand is not safe for concurrent use and is never locked. Concurrent
// code must follow the per-goroutine-stream rule: the parent goroutine
// calls Split once per worker, in a fixed order, before spawning, and
// hands each worker its own stream. Because Split is deterministic, the
// set of streams depends only on the seed and the split order — never on
// goroutine scheduling — so concurrent runs reproduce single-threaded
// runs bit for bit. Sharing one Rand across goroutines, or splitting
// from inside workers in completion order, breaks both the race-freedom
// and the reproducibility guarantee.
package rng

import "math"

// Rand is a deterministic random number generator. It is not safe for
// concurrent use; use Split to derive independent generators for separate
// goroutines.
type Rand struct {
	s0, s1, s2, s3 uint64
	// cached spare gaussian from Box-Muller
	spare    float64
	hasSpare bool
}

// splitMix64 advances a SplitMix64 state and returns the next value. It is
// used only for seeding so that nearby seeds yield unrelated streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split returns a new generator whose stream is independent of the
// receiver's future output. The receiver is advanced.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Clone returns an independent copy of the generator frozen at its
// current state: the clone and the receiver emit identical streams from
// here on, and drawing from one never advances the other. This is what
// lets a failed run be replayed bit for bit — reserve a stream, hand a
// clone to the attempt, and hand a fresh clone to the retry.
func (r *Rand) Clone() *Rand {
	c := *r
	return &c
}

// Fingerprint returns a 64-bit digest of the generator's current state
// (stream position and the cached Box-Muller spare). Two generators with
// equal fingerprints emit identical streams from here on, so the digest
// can stand in for the full state wherever identity — not the state
// itself — is what matters, e.g. in a compile-cache key that must
// distinguish a fresh seeded noise source from a partially consumed one.
func (r *Rand) Fingerprint() uint64 {
	h := r.s0
	fold := func(v uint64) {
		h ^= v
		h = splitMix64(&h)
	}
	fold(r.s1)
	fold(r.s2)
	fold(r.s3)
	fold(math.Float64bits(r.spare))
	if r.hasSpare {
		fold(1)
	}
	return h
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal deviate using the Box-Muller
// transform (polar form avoided for determinism simplicity).
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 1e-300 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*v)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}
