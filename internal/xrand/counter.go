package xrand

// This file implements pattern 3 of the package's determinism contract: a
// counter-based (index-addressable) random stream. Where *RNG is a
// sequential generator whose draw ORDER is part of a run's identity, a
// Stream is a pure function
//
//	value = f(seed, key, counter)
//
// with no mutable state at all: any worker can compute the draw for any
// (key, counter) pair at any time, in any order, and obtain the same bits.
// This is what lets core.Train shard its DP noise stage (Eq. 6/9) across
// goroutines while staying bit-identical at every worker count — noise is
// addressed by (epoch, matrix, row, coordinate), not by when it is drawn.
//
// Construction: a SplitMix64-style block function. Derive folds a key into
// the state with a full avalanche round, and each counter draw is the
// SplitMix64 output function applied to the keyed Weyl sequence
// base + (ctr+1)·γ. Every keyed substream is therefore exactly a SplitMix64
// generator (a well-tested PRNG) addressed by index instead of by
// iteration, and distinct keys select substreams whose seeds differ by a
// full 64-bit avalanche. The normal sampler on top, NormalAt, is in
// ziggurat.go.

const (
	// golden is the SplitMix64 Weyl increment (2^64 / φ, odd).
	golden = 0x9e3779b97f4a7c15
	// keyGamma decorrelates the key axis from the counter axis.
	keyGamma = 0xd1342543de82ef95
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche on 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a counter-based random stream: a stateless value type whose
// draws are pure functions of (seed, key path, counter). Streams are safe
// for concurrent use — there is nothing to mutate — and copying one is
// free. The zero value is a valid (fixed, arbitrary) stream; construct
// with NewStream for seeded use.
type Stream struct {
	base uint64
}

// NewStream returns the counter stream for the given seed. Streams with
// different seeds are decorrelated by a full avalanche, so small seeds are
// fine.
func NewStream(seed uint64) Stream {
	return Stream{base: mix64(seed + golden)}
}

// Derive returns the substream selected by key. Derivation composes:
// s.Derive(a).Derive(b) is a well-defined stream distinct from
// s.Derive(b).Derive(a). Hot loops should derive once per key and then
// address counters on the result, rather than re-deriving per draw.
func (s Stream) Derive(key uint64) Stream {
	return Stream{base: mix64(s.base + key*keyGamma)}
}

// Uint64At returns the 64 uniform bits at counter ctr: the SplitMix64
// output for this substream's Weyl sequence, independent across counters.
func (s Stream) Uint64At(ctr uint64) uint64 {
	return mix64(s.base + (ctr+1)*golden)
}

// Float64At returns the uniform float64 in [0, 1) at counter ctr.
func (s Stream) Float64At(ctr uint64) float64 {
	return float64(s.Uint64At(ctr)>>11) / (1 << 53)
}
