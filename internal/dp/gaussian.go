// Package dp is the differential-privacy kernel: ℓ2 gradient clipping
// (Eq. 3), the Gaussian mechanism, Rényi-DP accounting for the Gaussian
// mechanism including privacy amplification by subsampling without
// replacement (Theorem 4, after Wang, Balle & Kasiviswanathan 2019), the
// RDP→(ε,δ) conversion (Theorem 1, after Mironov 2017), and the streaming
// accountant that implements the Algorithm 2 stopping rule.
package dp

import (
	"fmt"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// Clip rescales g in place so its ℓ2 norm is at most c, per Eq. (3):
// Clip(g) = g / max(1, ||g||₂/C). It returns the pre-clipping norm.
// A non-positive c disables clipping.
func Clip(g []float64, c float64) float64 {
	return mathx.ClipNorm2(g, c)
}

// GaussianMechanism adds independent N(0, (sensitivity·sigma)²) noise to
// every coordinate of x in place. sigma is the noise multiplier (noise
// standard deviation per unit of sensitivity).
func GaussianMechanism(x []float64, sensitivity, sigma float64, rng *xrand.RNG) {
	if sensitivity < 0 || sigma < 0 {
		panic(fmt.Sprintf("dp: GaussianMechanism(sensitivity=%g, sigma=%g) negative parameter", sensitivity, sigma))
	}
	sd := sensitivity * sigma
	if sd == 0 {
		return
	}
	for i := range x {
		x[i] += sd * rng.Normal()
	}
}

// GaussianMechanismAt is GaussianMechanism with index-addressed noise:
// coordinate i receives sd·NormalAt(base+i) from the given counter stream
// (xrand contract pattern 3), so callers can shard one logical noise
// vector across workers at any offset — or re-derive any coordinate's
// noise later — without a shared sequential RNG. Each coordinate reads
// its own counter, so a shard's bits never depend on where it was cut.
//
// The privacy accounting is indifferent to the change: Theorems 4–5 bound
// the mechanism by the DISTRIBUTION of its noise — i.i.d. N(0, sd²) per
// coordinate, which holds for counter-addressed draws exactly as for
// sequential ones — not by how a PRNG indexes them.
func GaussianMechanismAt(x []float64, sensitivity, sigma float64, st xrand.Stream, base uint64) {
	if sensitivity < 0 || sigma < 0 {
		panic(fmt.Sprintf("dp: GaussianMechanismAt(sensitivity=%g, sigma=%g) negative parameter", sensitivity, sigma))
	}
	sd := sensitivity * sigma
	if sd == 0 {
		return
	}
	z := make([]float64, len(x))
	st.NormalsAt(z, base)
	for i := range x {
		x[i] += sd * z[i]
	}
}

// GaussianRDP returns the Rényi divergence bound ε(α) = α/(2σ²) of the
// Gaussian mechanism with noise multiplier sigma (= noise std divided by
// ℓ2 sensitivity), valid for every α > 1 (Mironov 2017, Corollary 3).
func GaussianRDP(alpha float64, sigma float64) float64 {
	if alpha <= 1 {
		panic(fmt.Sprintf("dp: GaussianRDP needs alpha > 1, got %g", alpha))
	}
	if sigma <= 0 {
		panic(fmt.Sprintf("dp: GaussianRDP needs sigma > 0, got %g", sigma))
	}
	return alpha / (2 * sigma * sigma)
}
