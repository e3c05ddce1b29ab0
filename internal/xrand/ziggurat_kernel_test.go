package xrand

import (
	"encoding/binary"
	"math"
	"testing"

	"seprivgemb/internal/mathx"
)

// This file runs NoisyStep's AVX-512 kernel against its Go loop, bit for
// bit, by clearing mathx.UseAVX512 for the Go side. On a host without
// AVX-512 both sides are the Go loop and the tests say so.

// stepSpecials are the values whose bits the step must carry exactly:
// signed zeros, subnormals, infinities and NaNs with payloads (quiet and
// signalling, both signs).
var stepSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308,
	math.Inf(1), math.Inf(-1), 1e300, -1e-300,
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead00000000),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff4000000000abc),
}

// noisyStepSides applies s.NoisyStep to a copy of dst on the Go loop and,
// where the host has AVX-512, on the kernel, and fails on the first
// coordinate whose bits differ. It reports whether the kernel side ran.
func noisyStepSides(t testing.TB, s Stream, dst, g []float64, lr, sd float64) bool {
	t.Helper()
	host := mathx.UseAVX512
	defer func() { mathx.UseAVX512 = host }()
	mathx.UseAVX512 = false
	want := append([]float64(nil), dst...)
	s.NoisyStep(want, g, lr, sd)
	if !host {
		return false
	}
	mathx.UseAVX512 = true
	got := append([]float64(nil), dst...)
	s.NoisyStep(got, g, lr, sd)
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("n=%d lr=%v sd=%v: [%d] kernel %v (%#x), Go %v (%#x)", len(dst), lr, sd, k,
				got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
	return true
}

// TestNoisyStepKernelMatchesGo covers lengths 0–300 (every tail length
// and chunk boundary) on enough keys that the kernel hands back wedge and
// tail draws, with special values in dst, g and the scalars.
func TestNoisyStepKernelMatchesGo(t *testing.T) {
	root := NewStream(26)
	rng := New(5)
	var ran bool
	var wedge, tail int
	for key := uint64(0); key < 4; key++ {
		sub := root.Derive(key)
		for n := 0; n <= 300; n++ {
			dst, g := make([]float64, n), make([]float64, n)
			rng.NormalVec(dst, 1)
			rng.NormalVec(g, 1)
			for i := int(key) % 4; i < n; i += 7 {
				dst[i] = stepSpecials[(i+n)%len(stepSpecials)]
				g[(i*5)%n] = stepSpecials[(i*3+n)%len(stepSpecials)]
			}
			lr, sd := 0.025, 1.7
			if n%3 == 0 {
				lr = stepSpecials[(n/3)%len(stepSpecials)]
				sd = stepSpecials[(n/3+int(key))%len(stepSpecials)]
			}
			ran = noisyStepSides(t, sub, dst, g, lr, sd)
			for k := 0; k < n&^7; k++ {
				bits := sub.Uint64At(uint64(k))
				j := bits & 0xff
				if x := float64(bits>>11) * 0x1p-53 * zigX[j]; x >= zigX[j+1] {
					if j == 0 {
						tail++
					} else {
						wedge++
					}
				}
			}
		}
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("the kernel's prefixes held %d wedge and %d tail draws, want both", wedge, tail)
	}
	if ran {
		t.Logf("compared the AVX-512 kernel with the Go loop; its prefixes held %d wedge and %d tail draws", wedge, tail)
	} else {
		t.Log("no AVX-512 on this host: only the Go loop ran, kernel side skipped")
	}
}

// FuzzNoisyStepKernel compares the paths on raw bit patterns: the stream
// key, the scalars and every coordinate of dst and g are any 64-bit
// values.
func FuzzNoisyStepKernel(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(7), make([]byte, 300*16+18))
	raw := make([]byte, 2+16+len(stepSpecials)*16)
	binary.LittleEndian.PutUint16(raw, uint16(2*len(stepSpecials)))
	for i, v := range append(append([]float64{}, stepSpecials...), stepSpecials...) {
		binary.LittleEndian.PutUint64(raw[18+8*i:], math.Float64bits(v))
	}
	f.Add(uint64(3), raw)
	f.Fuzz(func(t *testing.T, key uint64, data []byte) {
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
		dst, g := make([]float64, n), make([]float64, n)
		for i := range dst {
			dst[i], g[i] = word(2+i), word(2+n+i)
		}
		noisyStepSides(t, NewStream(11).Derive(key), dst, g, word(0), word(1))
	})
}
