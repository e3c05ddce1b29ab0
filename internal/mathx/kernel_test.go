package mathx

import (
	"encoding/binary"
	"math"
	"testing"
)

// This file runs the AVX-512 scaled kernel (ScaledSet, ScaledAdd and
// AXPY on hosts that have it) against the Go loops it stands in for,
// bit for bit, by clearing UseAVX512 for the Go side. On a host without
// AVX-512 both sides are the Go loop and the tests say so.

// specials are the values whose bits an element-wise kernel must carry
// exactly: signed zeros, subnormals, infinities and NaNs with payloads
// (quiet and signalling, both signs).
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308,
	math.Inf(1), math.Inf(-1), 1, -1, 1.5e300, -3e-300,
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead00000000),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000abc),
}

// kernelSides runs fn on the Go loops and then, where the host has
// AVX-512, on the kernels; it reports whether the kernel side ran.
func kernelSides(t testing.TB, fn func(kernel bool)) bool {
	t.Helper()
	host := UseAVX512
	defer func() { UseAVX512 = host }()
	UseAVX512 = false
	fn(false)
	if !host {
		return false
	}
	UseAVX512 = true
	fn(true)
	return true
}

// scaledCase applies op to copies of dst on both paths and fails on the
// first element whose bits differ.
func scaledCase(t testing.TB, name string, dst []float64, op func(dst []float64)) bool {
	t.Helper()
	var want, got []float64
	ran := kernelSides(t, func(kernel bool) {
		out := append([]float64(nil), dst...)
		op(out)
		if kernel {
			got = out
		} else {
			want = out
		}
	})
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: [%d] kernel %v (%#x), Go %v (%#x)", name, len(dst), i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ran
}

// TestScaledKernelMatchesGo covers lengths 0–300 (every tail length) with
// special values in both vectors and the scalars.
func TestScaledKernelMatchesGo(t *testing.T) {
	var ran bool
	for n := 0; n <= 300; n++ {
		x, dst := fill(n, uint64(n)+1), fill(n, uint64(n)+1000)
		for i := n % 3; i < n; i += 5 {
			x[i] = specials[(i+n)%len(specials)]
			dst[(i*7)%n] = specials[(i*3+n)%len(specials)]
		}
		f := specials[n%len(specials)]
		c := specials[(n/len(specials))%len(specials)]
		if n%4 == 0 {
			f, c = 0.37, -1.25e-3 // ordinary scalars too
		}
		ran = scaledCase(t, "ScaledSet", dst, func(d []float64) { ScaledSet(d, f, c, x) })
		scaledCase(t, "ScaledAdd", dst, func(d []float64) { ScaledAdd(d, f, c, x) })
		scaledCase(t, "AXPY", dst, func(d []float64) { AXPY(c, x, d) })
	}
	if ran {
		t.Log("compared the AVX-512 kernel with the Go loop")
	} else {
		t.Log("no AVX-512 on this host: only the Go loop ran, kernel side skipped")
	}
}

// FuzzScaledKernel compares the paths on raw bit patterns: every input
// float, the scalars included, is any 64-bit value.
func FuzzScaledKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 300*16+18))
	raw := make([]byte, 2+16+len(specials)*16)
	raw[0] = byte(len(specials))
	for i, v := range append(append([]float64{}, specials...), specials...) {
		binary.LittleEndian.PutUint64(raw[18+8*i:], math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) >= 2 {
			n = int(binary.LittleEndian.Uint16(data)) % 301
		}
		word := func(i int) float64 {
			if off := 2 + 8*i; off+8 <= len(data) {
				return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			}
			return float64(i) * 0.75
		}
		a, b := word(0), word(1)
		x, dst := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], dst[i] = word(2+i), word(2+n+i)
		}
		scaledCase(t, "ScaledSet", dst, func(d []float64) { ScaledSet(d, a, b, x) })
		scaledCase(t, "ScaledAdd", dst, func(d []float64) { ScaledAdd(d, a, b, x) })
		scaledCase(t, "AXPY", dst, func(d []float64) { AXPY(b, x, d) })
	})
}
