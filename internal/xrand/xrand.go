// Package xrand provides the deterministic pseudo-random number generator
// used by every workload generator and stochastic model in the simulator.
//
// Reproducibility is a hard requirement: a given (workload, seed, core)
// triple must emit the identical address stream on every run so that paper
// figures regenerate bit-identically. math/rand would satisfy that too, but
// a local splitmix64/xoshiro-style generator keeps the hot path inlineable
// and makes the stream format part of this repository's contract rather
// than the standard library's.
package xrand

import "math"

// RNG is a small, fast, deterministic generator (xorshift64* seeded through
// splitmix64). The zero value is usable and behaves as NewRNG(0).
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds — including
// consecutive integers — produce decorrelated streams because the seed is
// diffused through splitmix64 first.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 step: guarantees a non-zero, well-mixed initial state
	// even for seed == 0.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.state = z
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	if r.state == 0 {
		r.Seed(0)
	}
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Uses the widening-multiply technique with a rejection step to avoid
// modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire's method, 64x64 -> 128 via math/bits-free decomposition:
	// fall back to simple rejection sampling on the top bits, which is
	// unbiased and cheap for the n ranges the simulator uses.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Zipf draws from a bounded Zipf-like distribution over [0, n) with skew
// parameter s (s = 0 is uniform; s around 0.8–1.2 matches the hot-cold
// popularity skew of embedding-table and graph-degree accesses). It uses
// the rejection-inversion-free approximation n * u^(1/(1-s)) clipped to
// range, which preserves the heavy head that matters for cache behaviour
// while staying O(1) per draw.
func (r *RNG) Zipf(n uint64, s float64) uint64 {
	if n == 0 {
		panic("xrand: Zipf called with n == 0")
	}
	if s <= 0 {
		return r.Uint64n(n)
	}
	if s >= 0.999 {
		s = 0.999
	}
	u := r.Float64()
	// Inverse-CDF of the continuous Pareto-truncated approximation.
	v := math.Pow(u, 1/(1-s))
	idx := uint64(v * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// Perm fills p with a pseudo-random permutation of [0, len(p)).
func (r *RNG) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Hash64 mixes x through a fixed 64-bit finalizer (stateless). Workload
// generators use it to derive reproducible per-element values (e.g. k-mer
// hashes) without consuming generator state.
func Hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
