package xrand

import (
	"math"
	"testing"
)

// This file pins the wedge squeeze (wedgeSqueeze, underCurve) to the
// log-domain wedge test it shortcuts: normalSlowLog is normalSlow as it
// was before the squeeze, kept here as the reference.

// normalSlowLog is normalSlow with the wedge test taken in the log domain
// every time.
func (d Stream) normalSlowLog(bits uint64) float64 {
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
		if math.Log(h) < -x*x/2 {
			return withSign(x, bits)
		}
		bits = d.Uint64At(k)
		k++
	}
}

// wedgeBits returns the first 64 bits of a draw in layer j, sign bit
// clear, whose abscissa is m·2⁻⁵³·zigX[j].
func wedgeBits(j, m uint64) uint64 { return m<<11 | j }

// edgeMantissas returns the abscissa mantissas of layer j at its wedge's
// edges: the first one whose x reaches zigX[j+1], the last one below
// zigX[j], and their neighbours inside the wedge.
func edgeMantissas(j uint64) []uint64 {
	lo := uint64(zigX[j+1] / zigX[j] * 0x1p53)
	for lo > 0 && float64(lo-1)*0x1p-53*zigX[j] >= zigX[j+1] {
		lo--
	}
	for float64(lo)*0x1p-53*zigX[j] < zigX[j+1] {
		lo++
	}
	const top = 1<<53 - 1
	return []uint64{lo, lo + 1, lo + 2, (lo + top) / 2, top - 1, top}
}

// TestWedgeSqueezeAtLayerEdges walks every wedge layer at its edges: x at
// zigX[j+1] and just below zigX[j], and h at zigF[j], zigF[j+1], the
// curve and a few ulps either side of both squeeze bounds. Every decision
// must be the log-domain test's, and the draws with x at the edges must
// equal the reference sampler's bit for bit on several substreams.
func TestWedgeSqueezeAtLayerEdges(t *testing.T) {
	var decided, fallback int
	for j := uint64(1); j <= 255; j++ {
		for _, m := range edgeMantissas(j) {
			x := float64(m) * 0x1p-53 * zigX[j]
			if x < zigX[j+1] || x >= zigX[j] {
				t.Fatalf("layer %d mantissa %d: x = %v outside the wedge [%v, %v)", j, m, x, zigX[j+1], zigX[j])
			}
			u := (x*x - zigX[j+1]*zigX[j+1]) / 2
			lo := zigF[j+1] * (1 - u) * (1 - squeezeMargin)
			hi := zigF[j+1] * (1 - u + u*u/2) * (1 + squeezeMargin)
			for _, h0 := range []float64{zigF[j], zigF[j+1], math.Exp(-x * x / 2), lo, hi} {
				for step := -4; step <= 4; step++ {
					h := ulpsFrom(h0, step)
					want := math.Log(h) < -x*x/2
					if got := underCurve(x, h, j); got != want {
						t.Fatalf("layer %d x=%v h=%v: squeeze says under=%v, log test %v", j, x, h, got, want)
					}
					if _, ok := wedgeSqueeze(x, h, j); ok {
						decided++
					} else {
						fallback++
					}
				}
			}
			for key := uint64(0); key < 8; key++ {
				d := NewStream(30).Derive(j<<8 | key)
				for _, sign := range []uint64{0, 0x100} {
					b := wedgeBits(j, m) | sign
					if got, want := d.normalSlow(b), d.normalSlowLog(b); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("layer %d bits %#x key %d: normalSlow %v, reference %v", j, b, key, got, want)
					}
				}
			}
		}
	}
	if decided == 0 || fallback == 0 {
		t.Fatalf("edge cases not spread across the band: %d decided by the squeeze, %d by the log", decided, fallback)
	}
	t.Logf("%d edge tests decided by the squeeze, %d by the log", decided, fallback)
}

// ulpsFrom returns the float64 step ulps away from v > 0.
func ulpsFrom(v float64, step int) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(v)) + int64(step)))
}

// TestWedgeSqueezeFallbackRate counts, on a fixed stream, how many wedge
// tests the squeeze leaves to the logarithm (about 0.6%), so a squeeze
// whose bounds never decide fails here, and checks every draw against the
// reference sampler.
func TestWedgeSqueezeFallbackRate(t *testing.T) {
	sub := NewStream(41).Derive(9)
	var wedges, fallbacks int
	for i := uint64(0); i < 1<<21; i++ {
		bits := sub.Uint64At(i)
		j := bits & 0xff
		x := float64(bits>>11) * 0x1p-53 * zigX[j]
		if x < zigX[j+1] {
			continue
		}
		d := sub.Derive(i)
		if got, want := d.normalSlow(bits), d.normalSlowLog(bits); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("counter %d: normalSlow %v, reference %v", i, got, want)
		}
		if j == 0 {
			continue
		}
		wedges++
		h := zigF[j+1] + float64((zigF[j]-zigF[j+1])*d.Float64At(0))
		if _, ok := wedgeSqueeze(x, h, j); !ok {
			fallbacks++
		}
	}
	rate := float64(fallbacks) / float64(wedges)
	if wedges < 20_000 || rate > 0.01 {
		t.Fatalf("%d of %d wedge tests (%.3g%%) fell back to the log, want at most 1%%", fallbacks, wedges, 100*rate)
	}
	t.Logf("%d of %d wedge tests (%.3g%%) fell back to the log", fallbacks, wedges, 100*rate)
}

// FuzzNormalSlow compares normalSlow with the reference sampler on raw
// first-draw bits and substream keys.
func FuzzNormalSlow(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(wedgeBits(1, 1<<53-1), uint64(7))
	f.Add(wedgeBits(255, 1<<52)|0x100, uint64(1<<40))
	f.Add(^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, bits, key uint64) {
		d := NewStream(30).Derive(key)
		if got, want := d.normalSlow(bits), d.normalSlowLog(bits); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bits %#x key %d: normalSlow %v, reference %v", bits, key, got, want)
		}
	})
}

// BenchmarkNormalSlow times normalSlow over first-draw bits that leave
// their layer's core, as NoisyStep hands them over: mostly wedge tests,
// a few tails.
func BenchmarkNormalSlow(b *testing.B) {
	s := NewStream(1)
	var bits []uint64
	for i := uint64(0); len(bits) < 1<<12; i++ {
		v := s.Uint64At(i)
		if j := v & 0xff; float64(v>>11)*0x1p-53*zigX[j] >= zigX[j+1] {
			bits = append(bits, v)
		}
	}
	var z float64
	for k := 0; b.Loop(); k++ {
		z += s.Derive(uint64(k)).normalSlow(bits[k&(len(bits)-1)])
	}
	sinkF = z
}
