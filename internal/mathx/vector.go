// Package mathx provides the dense vector, matrix, and statistics kernel
// used throughout the repository. Everything is float64 and allocation
// patterns favour reuse: most mutating operations take a destination slice.
//
// The reductions (Dot, Norm2Sq, EuclideanDistance) carry four independent
// accumulators so the loop-carried floating-point add latency overlaps;
// their summation order is part of the golden-hash contract (DESIGN.md
// §12). Element-wise operations are plain loops that never reorder a
// float64 operation, and AXPY rounds each product on its own.
//
// On amd64 with AVX-512 (UseAVX512, probed once at init), ScaledSet,
// ScaledAdd and AXPY run an assembly kernel eight lanes wide that
// performs, lane by lane, the Go loop's operations in its operand order,
// so the bits are the same; the Go loops are the path everywhere else
// and the reference the kernel is tested against.
package mathx

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
// It panics if the lengths differ.
//
// Summation order (part of the golden-hash contract, DESIGN.md §12): four
// independent lane sums s0..s3 over strided elements, combined as
// (s0+s1)+(s2+s3), then the <4 tail elements added sequentially. This
// differs from the pre-PR-7 sequential order, so it was covered by that
// PR's one documented golden-hash update.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d != %d", len(x), len(y)))
	}
	y = y[:len(x)] // bounds-check elimination
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// AXPY computes y += a*x in place. Each product is assigned to an
// explicit intermediate, which the Go spec guarantees is rounded — so the
// result cannot be contracted into a fused multiply-add on architectures
// whose compilers would otherwise do so, and training stays bit-identical
// across platforms (DESIGN.md §12).
//
// With UseAVX512 it runs as ScaledAdd(y, 1, a, x), which is exact: the
// extra factor 1 leaves every product a·x[i], NaN payloads included.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: AXPY length mismatch %d != %d", len(x), len(y)))
	}
	y = y[:len(x)]
	for i := scaledWide(y, x, 1, a, true); i < len(x); i++ {
		t := a * x[i]
		y[i] += t
	}
}

// ScaledSet sets dst[d] = f·(c·x[d]), each product rounded on its own.
// len(x) must be at least len(dst).
func ScaledSet(dst []float64, f, c float64, x []float64) {
	x = x[:len(dst)]
	for d := scaledWide(dst, x, f, c, false); d < len(dst); d++ {
		g := c * x[d]
		dst[d] = f * g
	}
}

// ScaledAdd adds f·(c·x[d]) to dst[d], each product rounded on its own.
// len(x) must be at least len(dst).
func ScaledAdd(dst []float64, f, c float64, x []float64) {
	x = x[:len(dst)]
	for d := scaledWide(dst, x, f, c, true); d < len(dst); d++ {
		g := c * x[d]
		t := f * g
		dst[d] += t
	}
}

// Scale multiplies every element of x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Norm2 returns the Euclidean (ℓ2) norm of x. It is sqrt(Norm2Sq(x)), so
// it inherits Norm2Sq's unrolled summation order.
func Norm2(x []float64) float64 {
	return math.Sqrt(Norm2Sq(x))
}

// Norm2Sq returns the squared Euclidean norm of x.
//
// Summation order: the same 4-lane (s0+s1)+(s2+s3) + sequential-tail
// scheme as Dot.
func Norm2Sq(x []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * x[i]
		s1 += x[i+1] * x[i+1]
		s2 += x[i+2] * x[i+2]
		s3 += x[i+3] * x[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		s += x[i] * x[i]
	}
	return s
}

// ScaledNorm2Sq returns Norm2Sq of the vector a·x — each element rounded
// as fl(a·x[i]) before it is squared, summed in Norm2Sq's lane order —
// without materializing it, so it equals Norm2Sq of that written-out
// vector bit for bit.
func ScaledNorm2Sq(a float64, x []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := a*x[i], a*x[i+1], a*x[i+2], a*x[i+3]
		s0 += x0 * x0
		s1 += x1 * x1
		s2 += x2 * x2
		s3 += x3 * x3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		v := a * x[i]
		s += v * v
	}
	return s
}

// EuclideanDistance returns ||x-y||₂.
//
// Summation order: the same 4-lane scheme as Dot, over the squared
// element differences.
func EuclideanDistance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: EuclideanDistance length mismatch %d != %d", len(x), len(y)))
	}
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of x. Sequential: it feeds the
// training-weight rescale in core, whose factor is summed in index order
// as part of the determinism contract.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// elements. Single-pass Welford recurrence: numerically at least as
// stable as the two-pass mean-then-deviations form it replaced, and one
// sweep over x instead of two. Values agree with the two-pass form to
// relative 1e-12 (pinned by TestWelfordMatchesTwoPass), not bit-exactly.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	_, m2 := welford(x)
	return m2 / float64(len(x))
}

// welford runs Welford's single-pass recurrence, returning the running
// mean and the sum of squared deviations M2.
func welford(x []float64) (mean, m2 float64) {
	for i, v := range x {
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	return mean, m2
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// SampleStdDev returns the Bessel-corrected sample standard deviation,
// matching the ±SD columns reported in the paper's tables. Single-pass
// Welford, like Variance.
func SampleStdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	_, m2 := welford(x)
	return math.Sqrt(m2 / float64(len(x)-1))
}

// ClipNorm2 rescales x in place so that its ℓ2 norm does not exceed c,
// implementing Clip(g) = g / max(1, ||g||₂/c) from Eq. (3) of the paper.
// It returns the norm of x before clipping.
func ClipNorm2(x []float64, c float64) float64 {
	n := Norm2(x)
	if c > 0 && n > c {
		Scale(c/n, x)
	}
	return n
}
