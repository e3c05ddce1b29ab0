package xrand

import (
	"math/bits"

	"seprivgemb/internal/mathx"
)

//go:noescape
func noisyStepAVX512(dst, grad *float64, n int, ctr uint64, lr, sd float64) (slow uint64)

// noisyStepWide runs NoisyStep's kernel over the longest multiple-of-8
// prefix of dst when mathx.UseAVX512 is set and returns its length; the
// caller's Go loop finishes the rest. The kernel applies the core-
// rectangle draws in chunks of up to 64 coordinates and hands back the
// others as a bit mask, which are finished here by the Go loop's slow
// path on the same counters.
func (s Stream) noisyStepWide(dst, g []float64, lr, sd float64) int {
	n := len(dst) &^ 7
	if !mathx.UseAVX512 || n == 0 {
		return 0
	}
	for k := 0; k < n; k += 64 {
		c := min(64, n-k)
		slow := noisyStepAVX512(&dst[k], &g[k], c, s.base+(uint64(k)+1)*golden, lr, sd)
		for ; slow != 0; slow &= slow - 1 {
			i := k + bits.TrailingZeros64(slow)
			z := s.Derive(uint64(i)).normalSlow(s.Uint64At(uint64(i)))
			dst[i] -= lr * (g[i] + sd*z)
		}
	}
	return n
}
