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
// so the bits are the same. DotRows, SumScaledNorm2Sq and AXPYRows — the
// k+1 reductions of one skip-gram example — run kernels that go wide
// across the rows, each row in its Go loop's association. The operands
// of one add or multiply may come in either order there: IEEE addition
// and multiplication are commutative bit for bit unless an operand is a
// NaN, a NaN anywhere makes the result NaN, and a NaN result is
// recomputed by the Go loop, whose payload depends on its compiled
// operand order (which differs between default, race and fuzzing
// builds). The Go loops are the path everywhere else and the reference
// the kernels are tested against.
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

// DotRows sets out[t] = Dot(rows[t], x) for every row: the k+1 dots of
// one skip-gram example against its center row. With UseAVX512 a kernel
// takes the rows eight at a time over x's longest multiple-of-4 prefix,
// each in Dot's four lanes and combine; the tail is the loop below, in
// Dot's order, and a NaN result is recomputed by Dot, so every result
// equals its Dot bit for bit.
// It panics if a row's length differs from len(x).
func DotRows(out, x []float64, rows [][]float64) {
	checkRows("DotRows", rows, len(x))
	out = out[:len(rows)]
	var part [8]float64
	for len(rows) > 0 {
		k, i := dotRowsWide(&part, x, rows)
		if k == 0 {
			break
		}
		for t, r := range rows[:k] {
			s := part[t]
			for j := i; j < len(x); j++ {
				s += x[j] * r[j]
			}
			if s != s {
				s = Dot(r, x)
			}
			out[t] = s
		}
		out, rows = out[k:], rows[k:]
	}
	for t, r := range rows { // no kernel
		out[t] = Dot(r, x)
	}
}

// SumScaledNorm2Sq returns Σ_t ScaledNorm2Sq(coef[t], x), summed in t
// order: the squared norm of the concatenated rank-1 rows fl(c_t·x).
// With UseAVX512 a kernel takes the coefficients eight at a time, one per
// lane, over x's longest multiple-of-4 prefix in ScaledNorm2Sq's lane
// order; the tail is a loop in its order. A NaN sum is recomputed by the
// Go loop.
//
// Both paths leave out a tiny row that the running sum absorbs exactly
// (addTinyRow), so the squares of its products, which are subnormal or
// near it and take a microcode assist on every instruction that touches
// them, are never formed; the kernel sees such a row's coefficient as 0.
func SumScaledNorm2Sq(coef, x []float64) float64 {
	m := tinyRowScale(coef, x)
	if sq, ok := sumScaledNorm2SqWide(coef, x, m); ok && sq == sq {
		return sq
	}
	var sq float64
	for _, c := range coef {
		if isTinyRow(c, m) {
			sq = addTinyRow(sq, c, m, x)
		} else {
			sq += ScaledNorm2Sq(c, x)
		}
	}
	return sq
}

// sumScaledNorm2SqWide is SumScaledNorm2Sq on the kernel; false when
// there is none. m is tinyRowScale(coef, x).
func sumScaledNorm2SqWide(coef, x []float64, m float64) (float64, bool) {
	var sq float64
	var part [8]float64
	for len(coef) > 0 {
		k, i := scaledNorm2SqWide(&part, coef, x, m)
		if k == 0 {
			return 0, false
		}
		for t, c := range coef[:k] {
			if isTinyRow(c, m) {
				sq = addTinyRow(sq, c, m, x)
				continue
			}
			s := part[t]
			for _, xd := range x[i:] {
				v := xd * c
				s += v * v
			}
			sq += s
		}
		coef = coef[k:]
	}
	return sq, true
}

// The tiny-row skip. Let M = max_d |x[d]| and n = len(x). If
// fl(|c|·M) < 2⁻⁵⁰⁵, every product fl(c·x[d]) is below 2⁻⁵⁰⁵ in
// magnitude, every square is at most 2⁻¹⁰¹⁰, and ScaledNorm2Sq(c, x),
// a sum of n such squares, is at most n·2⁻¹⁰¹⁰. If the running sum P is
// at least n·2⁻⁹⁵⁵, that is below half an ulp of P, so fl(P + S) = P and
// the row can be left out without moving a bit. Under that cutoff the row
// is computed in full, unless fl(|c|·M) < 2⁻⁵³⁸: then every square is
// below 2⁻¹⁰⁷⁶, a quarter of the least subnormal, and rounds to +0, so
// the row adds +0 to any P (which is never −0). The argument needs finite
// values, so a NaN or ±Inf in x or the coefficients disables the skip.
const (
	tinyRowProduct = 0x1p-505 // the bound on fl(|c|·M) for a tiny row
	zeroRowProduct = 0x1p-538 // the bound for a tiny row whose sum is +0
	tinyRowSumUnit = 0x1p-955 // the cutoff on P, per element of x
	tinyCoef       = 0x1p-300 // a loose bound on |c| below which M is taken
)

// tinyRowScale returns M = max_d |x[d]| when some coefficient is below
// tinyCoef in magnitude and every coefficient is finite, and +Inf
// otherwise, which makes no row tiny.
func tinyRowScale(coef, x []float64) float64 {
	small := false
	for _, c := range coef {
		a := math.Abs(c)
		if !(a <= math.MaxFloat64) {
			return math.Inf(1)
		}
		small = small || a < tinyCoef
	}
	if !small {
		return math.Inf(1)
	}
	// Magnitude bits order as the magnitudes, and those of every NaN are
	// above +Inf's: a NaN in x makes M a NaN and an Inf makes it +Inf,
	// and then no row is tiny.
	var mb uint64
	for _, v := range x {
		mb = max(mb, math.Float64bits(v)&^(1<<63))
	}
	return math.Float64frombits(mb)
}

// isTinyRow reports fl(|c|·m) < 2⁻⁵⁰⁵ for m = tinyRowScale(coef, x).
func isTinyRow(c, m float64) bool {
	return math.Abs(c)*m < tinyRowProduct
}

// addTinyRow returns fl(sq + ScaledNorm2Sq(c, x)) for a tiny row c: sq
// itself when sq absorbs the row or the row's sum is +0, and the sum
// computed in full otherwise.
func addTinyRow(sq, c, m float64, x []float64) float64 {
	if sq >= float64(len(x))*tinyRowSumUnit || math.Abs(c)*m < zeroRowProduct {
		return sq
	}
	return sq + ScaledNorm2Sq(c, x)
}

// AXPYRows sets dst to Σ_t coef[t]·rows[t], over the first len(coef)
// rows, and returns Norm2Sq(dst): the Win gradient of one skip-gram
// example and its squared norm. Each element is
// ((0 + rows[0][d]·coef[0]) + rows[1][d]·coef[1]) + …, the order of
// Zero(dst) followed by AXPY(coef[t], rows[t], dst) for each t, which is
// what runs without AVX-512. With it, a kernel makes one pass over dst's
// longest multiple-of-4 prefix that also sums the squares in Norm2Sq's
// lanes and combine; the tail is Zero, AXPY and Norm2Sq's tail loop. A
// NaN anywhere in dst makes the norm NaN, and then the Go loops redo dst.
// It panics if a row's length differs from len(dst).
func AXPYRows(dst, coef []float64, rows [][]float64) float64 {
	checkRows("AXPYRows", rows, len(dst))
	rows = rows[:len(coef)]
	if i, sq := axpyRowsWide(dst, coef, rows); i > 0 {
		tail := dst[i:]
		Zero(tail)
		for t, c := range coef {
			AXPY(c, rows[t][i:], tail)
		}
		for _, g := range tail {
			sq += g * g
		}
		if sq == sq {
			return sq
		}
	}
	Zero(dst)
	for t, c := range coef {
		AXPY(c, rows[t], dst)
	}
	return Norm2Sq(dst)
}

// checkRows panics unless every row is n long, which the kernels read.
func checkRows(op string, rows [][]float64, n int) {
	for t, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("mathx: %s row %d length %d != %d", op, t, len(r), n))
		}
	}
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
