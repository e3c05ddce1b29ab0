package mathx

import (
	"encoding/binary"
	"math"
	"testing"
)

// This file is the oracle suite of the vector kernels (DESIGN.md §12).
// Each kernel is compared against a naive reference implementation kept
// here:
//
//   - element-wise kernels (AXPY, Scale) must match their oracle EXACTLY
//     at the bit level;
//   - four-lane reductions (Dot, Norm2Sq, EuclideanDistance) sum in a
//     different order than the sequential loop (DESIGN.md §12), so they
//     match the sequential oracle to a bounded relative error, not
//     bit-exactly.
//
// The Fuzz targets drive the same oracles across lengths 0–1025 with
// arbitrary byte-derived contents; `make fuzz` runs them with a short
// budget, and plain `go test` replays the seed corpus.

// --- naive oracles -----------------------------------------------------

// naiveDot is the pre-kernel-layer sequential inner product.
func naiveDot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// naiveAXPY is the sequential y += a*x with each product rounded on its
// own (no FMA contraction), matching the kernel contract.
func naiveAXPY(a float64, x, y []float64) {
	for i, v := range x {
		t := a * v
		y[i] += t
	}
}

// naiveNorm2Sq is the sequential squared norm.
func naiveNorm2Sq(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

// naiveEuclideanDistance is the sequential ||x-y||₂.
func naiveEuclideanDistance(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// naiveVariance is the two-pass mean-then-deviations population variance
// the Welford rewrite replaced.
func naiveVariance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// naiveSampleStdDev is the two-pass Bessel-corrected form.
func naiveSampleStdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)-1))
}

// --- helpers -----------------------------------------------------------

// kernelLengths covers empty input, every tail residue of the 4-wide
// unroll, and larger sizes spanning multiple cache lines.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 127, 128, 129, 1024, 1025}

// fill generates deterministic non-trivial values: sign-alternating,
// spanning several orders of magnitude so reordered summation actually
// produces different roundings.
func fill(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed*0x9e3779b97f4a7c15 + 1
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		mag := math.Ldexp(float64(s%1000)+0.5, int(s%40)-20)
		if s&1 == 0 {
			mag = -mag
		}
		x[i] = mag
	}
	return x
}

// sumAbsProducts bounds the condition of a reordered product sum: the
// float64 result of any summation order differs from any other by at most
// ~n·eps times this value.
func sumAbsProducts(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += math.Abs(x[i] * y[i])
	}
	return s
}

// reorderTol is the allowed drift between two summation orders of n
// products with total absolute mass absSum: a slack factor over the
// standard n·eps·Σ|terms| forward-error bound.
func reorderTol(n int, absSum float64) float64 {
	return 8 * float64(n+1) * 0x1p-52 * absSum
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --- reduction kernels: bounded drift vs the sequential oracle ---------

func TestDotMatchesNaiveWithinReorderBound(t *testing.T) {
	for _, n := range kernelLengths {
		x, y := fill(n, 1), fill(n, 2)
		got, want := Dot(x, y), naiveDot(x, y)
		if tol := reorderTol(n, sumAbsProducts(x, y)); math.Abs(got-want) > tol {
			t.Errorf("n=%d: Dot = %g, naive = %g, |diff| %g > tol %g", n, got, want, got-want, tol)
		}
	}
}

func TestNorm2SqMatchesNaiveWithinReorderBound(t *testing.T) {
	for _, n := range kernelLengths {
		x := fill(n, 3)
		got, want := Norm2Sq(x), naiveNorm2Sq(x)
		if tol := reorderTol(n, sumAbsProducts(x, x)); math.Abs(got-want) > tol {
			t.Errorf("n=%d: Norm2Sq = %g, naive = %g, tol %g", n, got, want, tol)
		}
	}
}

func TestEuclideanDistanceMatchesNaiveWithinReorderBound(t *testing.T) {
	for _, n := range kernelLengths {
		x, y := fill(n, 4), fill(n, 5)
		got, want := EuclideanDistance(x, y), naiveEuclideanDistance(x, y)
		// Compare the squared distances' condition; sqrt contracts error.
		d := make([]float64, n)
		for i := range d {
			d[i] = x[i] - y[i]
		}
		if tol := math.Sqrt(reorderTol(n, sumAbsProducts(d, d))) + 1e-300; math.Abs(got-want) > tol {
			t.Errorf("n=%d: EuclideanDistance = %g, naive = %g, tol %g", n, got, want, tol)
		}
	}
}

// --- element-wise kernels: exact bit-equality --------------------------

func TestAXPYBitIdenticalToNaive(t *testing.T) {
	for _, n := range kernelLengths {
		x := fill(n, 6)
		y1, y2 := fill(n, 7), fill(n, 7)
		const a = 1.37e-3
		AXPY(a, x, y1)
		naiveAXPY(a, x, y2)
		if !bitsEqual(y1, y2) {
			t.Errorf("n=%d: AXPY diverges from the naive loop", n)
		}
	}
}

func TestScaleBitIdenticalToNaive(t *testing.T) {
	for _, n := range kernelLengths {
		x := fill(n, 8)
		s1, s2 := append([]float64(nil), x...), append([]float64(nil), x...)
		Scale(0.73, s1)
		for i := range s2 {
			s2[i] *= 0.73
		}
		if !bitsEqual(s1, s2) {
			t.Errorf("n=%d: Scale diverges", n)
		}
	}
}

// --- Welford satellite: tolerance vs the two-pass values ---------------

func TestWelfordMatchesTwoPass(t *testing.T) {
	for _, n := range kernelLengths {
		x := fill(n, 22)
		// Offset the data so the mean is far from zero — the regime where
		// the naive two-pass form is still fine but a naive single-pass
		// sum-of-squares would cancel catastrophically.
		for i := range x {
			x[i] = 1e6 + x[i]/1e3
		}
		v, nv := Variance(x), naiveVariance(x)
		if nv != 0 && math.Abs(v-nv)/nv > 1e-9 {
			t.Errorf("n=%d: Variance = %g, two-pass = %g", n, v, nv)
		}
		s, ns := SampleStdDev(x), naiveSampleStdDev(x)
		if ns != 0 && math.Abs(s-ns)/ns > 1e-9 {
			t.Errorf("n=%d: SampleStdDev = %g, two-pass = %g", n, s, ns)
		}
	}
}

// --- fuzz targets ------------------------------------------------------

// floatsFromBytes derives up to 1025 float64 values from raw fuzz bytes:
// the first byte pair picks the length, then values are decoded 8 bytes
// at a time with non-finite values squashed into a finite range (the
// reduction tolerance bounds only hold for finite arithmetic; the
// bit-equality kernels are additionally fuzzed raw below).
func floatsFromBytes(data []byte, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		var bits uint64
		off := i * 8
		if off+8 <= len(data) {
			bits = binary.LittleEndian.Uint64(data[off : off+8])
		} else {
			bits = uint64(i)*0x9e3779b97f4a7c15 + 0x51
		}
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(int64(bits>>12)) * 0x1p-20
		} else if v != 0 {
			// Clamp exponents into ±2^±100 so products cannot overflow.
			_, exp := math.Frexp(v)
			if exp > 100 || exp < -100 {
				v = math.Ldexp(math.Copysign(0.5, v), exp%100)
			}
		}
		x[i] = v
	}
	return x
}

// fuzzLen maps two fuzz bytes onto the contract's 0–1025 length range.
func fuzzLen(data []byte) int {
	if len(data) < 2 {
		return len(data)
	}
	return int(binary.LittleEndian.Uint16(data)) % 1026
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 1025*8+2))
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i * 37)
	}
	f.Add(big)
}

func FuzzDot(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzLen(data)
		x := floatsFromBytes(data, n)
		y := floatsFromBytes(append([]byte{7, 7}, data...), n)
		got, want := Dot(x, y), naiveDot(x, y)
		if tol := reorderTol(n, sumAbsProducts(x, y)); math.Abs(got-want) > tol {
			t.Fatalf("n=%d: Dot = %g, naive = %g, tol %g", n, got, want, tol)
		}
	})
}

func FuzzAXPY(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzLen(data)
		x := floatsFromBytes(data, n)
		a := 0.5
		if n > 0 {
			a = x[n-1]
		}
		y1 := floatsFromBytes(append([]byte{3, 1}, data...), n)
		y2 := append([]float64(nil), y1...)
		AXPY(a, x, y1)
		naiveAXPY(a, x, y2)
		if !bitsEqual(y1, y2) {
			t.Fatalf("n=%d a=%g: AXPY diverges from the naive loop", n, a)
		}
	})
}
