// Package xrand is the repository's randomness substrate: a small, fast,
// explicitly seeded PRNG plus the samplers the paper's algorithms need —
// Gaussian noise for the DP mechanism, alias tables for weighted negative
// sampling, and shuffling/subset selection for subsampling without
// replacement.
//
// Every stochastic component in the repository takes a *xrand.RNG so that
// experiments are reproducible from a single seed.
//
// # Determinism contract under concurrency
//
// An *RNG is NOT safe for concurrent use, and — more importantly for
// reproducibility — the ORDER of draws from a stream is part of a run's
// identity: the batch sampling of core.Train comes from a sequential
// stream, so any extra or reordered draw changes the published embedding.
// Parallel code must therefore follow one of three patterns, never "share
// the stream and lock":
//
//  1. Consume nothing. core.Train's parallel gradient stage is randomness
//     free by construction; only the single-threaded sampling step
//     touches the run RNG, so worker scheduling can never consume (or
//     reorder) a draw.
//  2. Split up front. Independent tasks (e.g. the experiments sweep
//     runner's fan-out over datasets × ε × seeds) each construct their
//     own stream with New(seed) from an explicitly assigned seed — or
//     with Split, called on the parent BEFORE the tasks are spawned, in
//     task order — so per-task randomness is fixed by the task's index,
//     not by goroutine scheduling.
//  3. Address by index. When every task needs randomness of its own and
//     the tasks are identified by stable indices — DP noise addressed by
//     (epoch, matrix, row, coordinate), subgraph sampling addressed by
//     edge index — use a counter-based Stream (counter.go): each draw is
//     a pure function of (seed, key, counter), so any worker can compute
//     any draw at any time and the result is bit-identical at every
//     worker count. This is how core.Train shards its Eq. (6)/(9) noise
//     stage and Algorithm 1's per-edge sampling. Stream.NormalAt reads one
//     counter per normal (a ziggurat, ziggurat.go), so any contiguous or
//     scattered subset of coordinates can be drawn on its own.
package xrand

import (
	"math"
	"sort"
)

// RNG is a splittable pseudo-random number generator based on the
// SplitMix64 / xoshiro256** family. The zero value is not usable; construct
// with New.
type RNG struct {
	s [4]uint64
	// cached second Gaussian from Box–Muller
	gauss    float64
	hasGauss bool
}

// New returns an RNG seeded from the given seed via SplitMix64, which
// guarantees a well-distributed initial state even for small seeds.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets r to the state New(seed) would construct, reusing the
// receiver's storage. Hot loops that need one short-lived RNG per work
// item (e.g. the per-edge streams of Algorithm 1) reseed a stack value
// instead of allocating per item.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	r.hasGauss = false
	r.gauss = 0
}

// Split returns a new RNG deterministically derived from r's stream,
// suitable for handing to a parallel worker without sharing state. Call
// it on the parent stream before spawning workers, in worker order; each
// call consumes one draw from r (see the package-level determinism
// contract).
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Normal returns a standard normal variate using the Box–Muller transform,
// caching the second value of each pair.
func (r *RNG) Normal() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// NormalVec fills dst with independent N(0, sigma²) variates.
func (r *RNG) NormalVec(dst []float64, sigma float64) {
	for i := range dst {
		dst[i] = sigma * r.Normal()
	}
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly at random in place.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SampleWithoutReplacement returns m distinct values from [0, n) in random
// order. This is the "subsample" procedure of Definition 6 (sampling
// parameter γ = m/n). It panics if m > n or m < 0.
//
// For small m relative to n it uses Floyd's algorithm (O(m) memory, no O(n)
// allocation); otherwise a partial Fisher–Yates.
func (r *RNG) SampleWithoutReplacement(n, m int) []int {
	if m < 0 || m > n {
		panic("xrand: SampleWithoutReplacement m out of range")
	}
	if m == 0 {
		return nil
	}
	if m*4 < n {
		// Floyd's algorithm. Membership is tracked in a small sorted slice
		// rather than a map: for batch-sized m the binary search + memmove
		// beat hashing, and the whole sampler costs two allocations. The
		// draw sequence is unchanged, so outputs are bit-identical to the
		// map-based version.
		chosen := make([]int, 0, m) // sorted
		out := make([]int, 0, m)
		for j := n - m; j < n; j++ {
			t := r.Intn(j + 1)
			pos := sort.SearchInts(chosen, t)
			if pos < len(chosen) && chosen[pos] == t {
				// Duplicate: Floyd substitutes j, which exceeds every prior
				// value (each earlier iteration inserted values <= its own
				// smaller j), so it belongs at the end of chosen.
				t = j
				pos = len(chosen)
			}
			chosen = append(chosen, 0)
			copy(chosen[pos+1:], chosen[pos:])
			chosen[pos] = t
			out = append(out, t)
		}
		r.Shuffle(out)
		return out
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:m]
}
