package xrand

import "math"

// This file is the counter stream's normal sampler: a 256-layer ziggurat
// (Marsaglia & Tsang 2000) that reads one counter per normal. The 64 bits
// at counter i give the layer (bits 0–7), the sign (bit 8) and the
// abscissa (bits 11–63, 53 bits). About 98.5% of draws fall inside their
// layer's core rectangle and return after one multiply and one compare;
// about 1.47% need a wedge test and 0.026% the tail beyond R. Those, and
// any rejection retry, read further uniforms from counters 0, 1, 2, … of
// the substream s.Derive(i), so NormalAt(i) stays a pure function of
// (seed, key path, i). The wedge test is decided by a squeeze between
// polynomial bounds on f (wedgeSqueeze); about 0.6% of wedge tests fall
// between the bounds and take the log-domain test.
//
// Cross-host bit determinism: nothing here calls math.Exp, whose amd64
// assembly switches to FMA instructions on CPUs that have them. The
// tables are built from R, V and f(R) with Sqrt, Log, + and ÷ only; the
// wedge test's squeeze bounds use + − × only, and between them the test
// compares in the log domain.
//
// NoisyStep has an AVX-512 kernel on amd64 (ziggurat_amd64.s, selected
// by mathx.UseAVX512): the counter hash, the layer lookup and the core-
// rectangle step run eight coordinates wide with the Go loop's
// operations and operand order, so the bits are the same, and the draws
// outside the core come back as a mask for normalSlow to finish here.

// Ziggurat constants for f(x) = exp(-x²/2) with 256 layers of equal area,
// rounded from 50-digit values. zigR is the base layer's abscissa, where
// the tail starts; zigV is each layer's area (for the base layer, the
// rectangle [0, R]×[0, f(R)] plus the tail beyond R); zigFR is f(R).
const (
	zigR  = 3.6541528853610087716454297
	zigV  = 0.0049286732339746553473617754
	zigFR = 0.0012602859304985975641334622
)

// zigX and zigF are the layer edges. Layer j ≥ 1 is the rectangle
// [0, zigX[j]]×[zigF[j], zigF[j+1]] with zigF[j] = f(zigX[j]); its core
// [0, zigX[j+1]] lies under the curve. zigX[0] = V/f(R) is the base
// layer's virtual width: a base draw past R stands for the tail. zigF[0]
// is never read.
var zigX, zigF = zigguratTables()

// zigguratTables builds the layer edges by the equal-area recursion
// f(x[j+1]) = V/x[j] + f(x[j]), which closes at the top layer to within
// 4e-15; the top edge is pinned to (0, 1).
func zigguratTables() (x, f [257]float64) {
	x[0] = zigV / zigFR
	x[1], f[1] = zigR, zigFR
	for j := 1; j < 255; j++ {
		f[j+1] = zigV/x[j] + f[j]
		x[j+1] = math.Sqrt(-2 * math.Log(f[j+1]))
	}
	x[256], f[256] = 0, 1
	return x, f
}

// NormalAt returns the standard normal variate at counter i. Distinct
// counters give independent variates, and each draw depends on no other
// counter of this stream.
func (s Stream) NormalAt(i uint64) float64 {
	bits := s.Uint64At(i)
	j := bits & 0xff
	if x := float64(bits>>11) * 0x1p-53 * zigX[j]; x < zigX[j+1] {
		return withSign(x, bits)
	}
	return s.Derive(i).normalSlow(bits)
}

// NormalsAt fills dst[k] with NormalAt(base+k) for every k: the same
// draws, bit for bit, with the core-rectangle test inlined so a noise row
// costs one counter hash and one compare per coordinate.
func (s Stream) NormalsAt(dst []float64, base uint64) {
	for k := range dst {
		i := base + uint64(k)
		bits := mix64(s.base + (i+1)*golden)
		j := bits & 0xff
		if x := float64(int64(bits>>11)) * 0x1p-53 * zigX[j]; x < zigX[j+1] {
			dst[k] = withSign(x, bits)
			continue
		}
		dst[k] = s.Derive(i).normalSlow(bits)
	}
}

// NoisyStep applies dst[k] -= lr·(g[k] + sd·NormalAt(k)) for every k: the
// Gaussian-mechanism gradient step with NormalsAt's draw fused into the
// apply loop, so no noise row is written and read back. Each draw equals
// NormalAt(k) bit for bit. len(g) must be at least len(dst).
func (s Stream) NoisyStep(dst, g []float64, lr, sd float64) {
	g = g[:len(dst)]
	for k := s.noisyStepWide(dst, g, lr, sd); k < len(dst); k++ {
		bits := mix64(s.base + (uint64(k)+1)*golden)
		j := bits & 0xff
		var z float64
		if x := float64(int64(bits>>11)) * 0x1p-53 * zigX[j]; x < zigX[j+1] {
			z = withSign(x, bits)
		} else {
			z = s.Derive(uint64(k)).normalSlow(bits)
		}
		dst[k] -= lr * (g[k] + sd*z)
	}
}

// withSign returns x (≥ 0) negated when bit 8 of bits is set.
func withSign(x float64, bits uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) | (bits&0x100)<<55)
}

// normalSlow finishes a draw whose first 64 bits fell outside their
// layer's core, reading uniforms from counters 0, 1, 2, … of d.
func (d Stream) normalSlow(bits uint64) float64 {
	for k := uint64(0); ; {
		j := bits & 0xff
		x := float64(bits>>11) * 0x1p-53 * zigX[j]
		if x < zigX[j+1] {
			return withSign(x, bits)
		}
		if j == 0 {
			// The tail beyond R (Marsaglia 1964): t = E1/R for exponential
			// E1, E2, accepted when 2·E2 > t².
			for {
				t := -math.Log(d.openFloat64At(k)) / zigR
				e := -math.Log(d.openFloat64At(k + 1))
				k += 2
				if e+e > t*t {
					return withSign(zigR+t, bits)
				}
			}
		}
		// The wedge: a uniform height h in the layer, accepted under the
		// curve. The conversion keeps the product rounded on its own, so
		// no compiler fuses it into an FMA.
		h := zigF[j+1] + float64((zigF[j]-zigF[j+1])*d.Float64At(k))
		k++
		if underCurve(x, h, j) {
			return withSign(x, bits)
		}
		bits = d.Uint64At(k)
		k++
	}
}

// squeezeMargin is the relative slack of wedgeSqueeze's bounds. It
// covers the tables' error as values of f (zigF[j] is within 1e-15 of
// f(zigX[j]), relative), the rounding of u and of the bounds, and the
// error of the log-domain test (a few ulps of values of magnitude at most
// R²/2 ≈ 6.7): together below 1e-14.
const squeezeMargin = 1e-12

// underCurve is the wedge test of layer j ≥ 1: it reports h < f(x) as the
// log-domain test math.Log(h) < -x²/2 decides it, taking the logarithm
// only where wedgeSqueeze cannot.
func underCurve(x, h float64, j uint64) bool {
	if under, ok := wedgeSqueeze(x, h, j); ok {
		return under
	}
	return math.Log(h) < -x*x/2
}

// wedgeSqueeze decides the wedge test h < f(x) of layer j ≥ 1 without a
// logarithm where a polynomial bound settles it, and reports ok = false
// in the thin band between the bounds, where only the log-domain test
// math.Log(h) < -x²/2 gives its answer. With u = (x² − x[j+1]²)/2 ≥ 0,
// f(x) = f[j+1]·e^(−u) and 1 − u ≤ e^(−u) ≤ 1 − u + u²/2. Every answer
// with ok set is the log-domain test's: outside a relative margin of
// squeezeMargin around f(x), the rounding of that test cannot flip it.
// In a layer, u < ln(f[j+1]/f[j]) ≤ 0.73, so e^(−u) ≥ 0.48 and an
// absolute error in u stays a relative one in the bounds.
func wedgeSqueeze(x, h float64, j uint64) (under, ok bool) {
	u := (x*x - zigX[j+1]*zigX[j+1]) / 2
	lo := 1 - u
	if h < zigF[j+1]*lo*(1-squeezeMargin) {
		return true, true
	}
	if h > zigF[j+1]*(lo+u*u/2)*(1+squeezeMargin) {
		return false, true
	}
	return false, false
}

// openFloat64At returns the uniform float64 in (0, 1] at counter ctr, so
// its logarithm is always finite.
func (s Stream) openFloat64At(ctr uint64) float64 {
	return (float64(s.Uint64At(ctr)>>11) + 1) * 0x1p-53
}
