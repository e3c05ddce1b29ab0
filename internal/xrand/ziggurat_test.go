package xrand

import (
	"math"
	"slices"
	"testing"

	"seprivgemb/internal/mathx"
)

// TestStreamNormalKS applies a one-sample Kolmogorov–Smirnov test of
// NormalAt against Φ over 4·10⁶ contiguous counters.
func TestStreamNormalKS(t *testing.T) {
	sub := NewStream(2024).Derive(11)
	const n = 4_000_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = sub.NormalAt(uint64(i))
	}
	slices.Sort(xs)
	var d float64
	for i, x := range xs {
		p := 0.5 * math.Erfc(-x/math.Sqrt2) // Φ(x)
		d = max(d, float64(i+1)/n-p, p-float64(i)/n)
	}
	// Asymptotic 1% critical value: sqrt(-ln(0.005)/2)/sqrt(n).
	crit := math.Sqrt(-math.Log(0.005)/2) / math.Sqrt(n)
	if d >= crit {
		t.Errorf("KS D = %.3g over %d draws, want < %.3g (1%% critical value)", d, n, crit)
	}
	t.Logf("KS D = %.3g over %d draws (1%% critical value %.3g)", d, n, crit)
}

// TestStreamNormalTailFrequency counts draws beyond the ziggurat's base
// abscissa R, where the tail sampler takes over, and deeper into the tail,
// against their Φ probabilities.
func TestStreamNormalTailFrequency(t *testing.T) {
	sub := NewStream(8).Derive(5)
	const n = 1 << 24
	cuts := []float64{zigR, 4, 5}
	counts := make([]float64, len(cuts))
	for i := 0; i < n; i++ {
		v := math.Abs(sub.NormalAt(uint64(i)))
		for c, cut := range cuts {
			if v > cut {
				counts[c]++
			}
		}
	}
	for c, cut := range cuts {
		want := n * math.Erfc(cut/math.Sqrt2) // P(|x| > cut) = 2(1 − Φ(cut))
		// Poisson counts: 5 standard deviations, and at least one draw
		// where ~10 are expected, so a sampler that drops the far tail fails.
		if math.Abs(counts[c]-want) > 5*math.Sqrt(want) || counts[c] == 0 {
			t.Errorf("|x| > %.4g: %g of %d draws, want approx %.4g (p = %.3g)",
				cut, counts[c], n, want, want/n)
		}
	}
}

// TestStreamNormalSlowBranches finds counters whose first 64 bits miss
// their layer's core — the wedge test (layers 1–255) and the tail (base
// layer, past R) — and checks those draws are finite, pure functions of
// their address, and that tail draws land beyond R with the sign bit's sign.
func TestStreamNormalSlowBranches(t *testing.T) {
	const seed, key = 77, 3
	sub := NewStream(seed).Derive(key)
	var wedge, tail, retries []uint64
	for i := uint64(0); len(tail) < 50 || len(retries) < 50; i++ {
		bits := sub.Uint64At(i)
		j := bits & 0xff
		x := float64(bits>>11) * 0x1p-53 * zigX[j]
		switch {
		case x < zigX[j+1]:
		case j == 0:
			tail = append(tail, i)
		default:
			wedge = append(wedge, i)
			d := sub.Derive(i)
			if h := zigF[j+1] + (zigF[j]-zigF[j+1])*d.Float64At(0); math.Log(h) >= -x*x/2 {
				retries = append(retries, i)
			}
		}
	}
	check := func(branch string, ctrs []uint64) map[uint64]float64 {
		got := make(map[uint64]float64, len(ctrs))
		for _, i := range ctrs {
			v := sub.NormalAt(i)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s counter %d: NormalAt = %g", branch, i, v)
			}
			got[i] = v
		}
		// Recompute in reverse order on a freshly built stream value.
		fresh := NewStream(seed).Derive(key)
		for k := len(ctrs) - 1; k >= 0; k-- {
			if v := fresh.NormalAt(ctrs[k]); v != got[ctrs[k]] {
				t.Fatalf("%s counter %d: %g then %g", branch, ctrs[k], got[ctrs[k]], v)
			}
		}
		return got
	}
	check("wedge", wedge)
	check("retry", retries)
	for i, v := range check("tail", tail) {
		neg := sub.Uint64At(i)&0x100 != 0
		if math.Abs(v) <= zigR || (v < 0) != neg {
			t.Errorf("tail counter %d: NormalAt = %g, want |x| > R = %g with sign bit %v", i, v, zigR, neg)
		}
	}
	t.Logf("%d wedge draws (%d retried) and %d tail draws", len(wedge), len(retries), len(tail))
}

// TestNormalsAtMatchesNormalAt pins the row fill to the scalar sampler:
// NormalsAt(dst, base) must equal NormalAt(base+k) bit for bit, over many
// substreams and offsets (one that wraps past 2^64 among them), on rows
// long enough that the wedge and tail branches are taken.
func TestNormalsAtMatchesNormalAt(t *testing.T) {
	root := NewStream(2025)
	row := make([]float64, 1000)
	var wedge, tail int
	for key := uint64(0); key < 64; key++ {
		sub := root.Derive(key)
		for _, base := range []uint64{0, 1, 997, 1 << 40, ^uint64(0) - 500} {
			sub.NormalsAt(row, base)
			for k, got := range row {
				i := base + uint64(k)
				if want := sub.NormalAt(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("key %d base %d: NormalsAt[%d] = %v, NormalAt(%d) = %v", key, base, k, got, i, want)
				}
				bits := sub.Uint64At(i)
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
		t.Fatalf("slow branches not exercised: %d wedge and %d tail draws", wedge, tail)
	}
	t.Logf("%d wedge and %d tail draws", wedge, tail)
}

// TestNoisyStepMatchesNormalsAt pins the fused step to the two-pass form
// it replaces — fill the noise row with NormalsAt, then apply
// dst[k] -= lr·(g[k] + sd·z[k]) — bit for bit, on rows long enough that
// the slow branches are taken.
func TestNoisyStepMatchesNormalsAt(t *testing.T) {
	root := NewStream(77)
	rng := New(3)
	const n = 1000
	g, z := make([]float64, n), make([]float64, n)
	got, want := make([]float64, n), make([]float64, n)
	for key := uint64(0); key < 32; key++ {
		sub := root.Derive(key)
		rng.NormalVec(g, 1)
		rng.NormalVec(want, 1)
		copy(got, want)
		lr, sd := rng.Float64(), 10*rng.Float64()
		sub.NormalsAt(z, 0)
		for k := range want {
			want[k] -= lr * (g[k] + sd*z[k])
		}
		sub.NoisyStep(got, g, lr, sd)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("key %d coord %d: NoisyStep %v, two-pass %v", key, k, got[k], want[k])
			}
		}
	}
}

func FuzzStreamNormalAt(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(42), uint64(7), uint64(1<<63))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed, key, ctr uint64) {
		s := NewStream(seed).Derive(key)
		v := s.NormalAt(ctr)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("NormalAt = %g", v)
		}
		if again := NewStream(seed).Derive(key).NormalAt(ctr); again != v {
			t.Fatalf("NormalAt not pure: %g then %g", v, again)
		}
	})
}

// zigTablesHash is the FNV-1a hash of zigX then zigF, recorded on
// linux/amd64 with Go 1.24. The tables are built with Sqrt, Log, + and ÷
// only; a change here changes every NormalAt draw.
const zigTablesHash uint64 = 0x08288047be7c3010

// TestZigguratTablesPinned pins the table bits and checks the tables
// against their definition: every layer has area V, zigF[j] = f(zigX[j]),
// and both edges are monotone.
func TestZigguratTablesPinned(t *testing.T) {
	h := uint64(0xcbf29ce484222325)
	for _, tab := range [][257]float64{zigX, zigF} {
		for _, v := range tab {
			b := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (b >> s) & 0xff
				h *= 0x100000001b3
			}
		}
	}
	if h != zigTablesHash {
		t.Errorf("ziggurat tables hash = %#x, want %#x", h, zigTablesHash)
	}
	if area := zigX[0] * zigF[1]; math.Abs(area-zigV) > 1e-15*zigV {
		t.Errorf("base layer area %g, want V = %g", area, zigV)
	}
	for j := 1; j <= 255; j++ {
		if !(zigX[j+1] < zigX[j] && zigF[j+1] > zigF[j]) {
			t.Fatalf("layer %d edges not monotone: x %g→%g, f %g→%g", j, zigX[j], zigX[j+1], zigF[j], zigF[j+1])
		}
		if area := zigX[j] * (zigF[j+1] - zigF[j]); math.Abs(area-zigV) > 1e-12*zigV {
			t.Errorf("layer %d area %g, want V = %g", j, area, zigV)
		}
		// Exp is fine here: the check tolerates last-bit differences.
		if want := math.Exp(-zigX[j] * zigX[j] / 2); math.Abs(zigF[j]-want) > 1e-14*want {
			t.Errorf("zigF[%d] = %g, want f(zigX[%d]) = %g", j, zigF[j], j, want)
		}
	}
}

// sinkF keeps benchmark results alive.
var sinkF float64

// BenchmarkStreamNormalAt fills one r = 128 noise row per op, the unit the
// training engine's update stage draws.
func BenchmarkStreamNormalAt(b *testing.B) {
	s := NewStream(1)
	row := make([]float64, 128)
	for k := uint64(0); b.Loop(); k++ {
		sub := s.Derive(k)
		for d := range row {
			row[d] = sub.NormalAt(uint64(d))
		}
	}
	sinkF = row[0]
}

// BenchmarkStreamNormalsAt fills the same rows as BenchmarkStreamNormalAt
// through the row fill.
func BenchmarkStreamNormalsAt(b *testing.B) {
	s := NewStream(1)
	row := make([]float64, 128)
	for k := uint64(0); b.Loop(); k++ {
		s.Derive(k).NormalsAt(row, 0)
	}
	sinkF = row[0]
}

// BenchmarkNoisyStep applies one r = 128 private step per op, a fresh
// substream each time, on the Go loop and on the AVX-512 kernel (skipped
// on a host without AVX-512).
func BenchmarkNoisyStep(b *testing.B) {
	host := mathx.UseAVX512
	defer func() { mathx.UseAVX512 = host }()
	for _, path := range []struct {
		name    string
		kernels bool
	}{{"go", false}, {"avx512", true}} {
		b.Run(path.name, func(b *testing.B) {
			if path.kernels && !host {
				b.Skip("no AVX-512 on this host")
			}
			mathx.UseAVX512 = path.kernels
			s := NewStream(1)
			dst, g := make([]float64, 128), make([]float64, 128)
			New(2).NormalVec(g, 1e-3)
			for k := uint64(0); b.Loop(); k++ {
				s.Derive(k).NoisyStep(dst, g, 0.025, 1.7)
			}
			sinkF = dst[0]
		})
	}
}
