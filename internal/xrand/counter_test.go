package xrand

import (
	"math"
	"testing"
)

func TestStreamIsPure(t *testing.T) {
	s := NewStream(42)
	for _, key := range []uint64{0, 1, 7, 1 << 40} {
		sub := s.Derive(key)
		for ctr := uint64(0); ctr < 50; ctr++ {
			if sub.Uint64At(ctr) != s.Derive(key).Uint64At(ctr) {
				t.Fatalf("Uint64At(key=%d, ctr=%d) not reproducible", key, ctr)
			}
			if sub.NormalAt(ctr) != sub.NormalAt(ctr) {
				t.Fatalf("NormalAt(%d) not reproducible", ctr)
			}
		}
	}
	if NewStream(1).Uint64At(0) == NewStream(2).Uint64At(0) {
		t.Error("different seeds collide at counter 0")
	}
	if s.Derive(1).Uint64At(0) == s.Derive(2).Uint64At(0) {
		t.Error("different keys collide at counter 0")
	}
	// Derivation is order-sensitive (a keyed path, not a XOR of keys).
	if s.Derive(1).Derive(2).Uint64At(0) == s.Derive(2).Derive(1).Uint64At(0) {
		t.Error("Derive is commutative; key paths would alias")
	}
}

// TestStreamNormalMoments checks mean/variance/kurtosis of NormalAt across
// a contiguous counter range — the statistical-sanity half of the counter
// stream's test contract.
func TestStreamNormalMoments(t *testing.T) {
	sub := NewStream(123).Derive(7)
	const n = 200000
	var sum, sumSq, sumQ float64
	for i := 0; i < n; i++ {
		v := sub.NormalAt(uint64(i))
		sum += v
		sumSq += v * v
		sumQ += v * v * v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	kurtosis := sumQ / n / (variance * variance)
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %g, want approx 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %g, want approx 1", variance)
	}
	if math.Abs(kurtosis-3) > 0.15 {
		t.Errorf("kurtosis = %g, want approx 3", kurtosis)
	}
}

// TestStreamNormalChiSquare bins NormalAt draws against the standard
// normal CDF and applies a χ² goodness-of-fit test.
func TestStreamNormalChiSquare(t *testing.T) {
	// Bin edges and their Φ values; tails folded into the end bins.
	edges := []float64{-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2}
	phi := []float64{0.022750, 0.066807, 0.158655, 0.308538, 0.5,
		0.691462, 0.841345, 0.933193, 0.977250}
	probs := make([]float64, len(edges)+1)
	prev := 0.0
	for i, p := range phi {
		probs[i] = p - prev
		prev = p
	}
	probs[len(edges)] = 1 - prev

	sub := NewStream(77).Derive(13)
	const n = 100000
	counts := make([]float64, len(probs))
	for i := 0; i < n; i++ {
		v := sub.NormalAt(uint64(i))
		b := 0
		for b < len(edges) && v >= edges[b] {
			b++
		}
		counts[b]++
	}
	var chi2 float64
	for b, p := range probs {
		expect := n * p
		d := counts[b] - expect
		chi2 += d * d / expect
	}
	// 9 degrees of freedom; χ²_{0.999,9} ≈ 27.9. Use a loose bound so the
	// test guards against implementation bugs, not sampling luck.
	if chi2 > 35 {
		t.Errorf("normal χ² = %g over %d bins, want < 35", chi2, len(probs))
	}
}

// TestStreamKeyIndependence verifies that substreams at distinct keys are
// uncorrelated even over identical counter ranges.
func TestStreamKeyIndependence(t *testing.T) {
	s := NewStream(5)
	const n = 100000
	pairs := [][2]uint64{{0, 1}, {1, 2}, {3, 1 << 33}, {42, 43}}
	for _, pk := range pairs {
		a, b := s.Derive(pk[0]), s.Derive(pk[1])
		var sa, sb, saa, sbb, sab float64
		for i := 0; i < n; i++ {
			x, y := a.NormalAt(uint64(i)), b.NormalAt(uint64(i))
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
		cov := sab/n - (sa/n)*(sb/n)
		corr := cov / math.Sqrt((saa/n-(sa/n)*(sa/n))*(sbb/n-(sb/n)*(sb/n)))
		// Under independence, corr is ~N(0, 1/n): sd ≈ 0.0032 at n=1e5.
		if math.Abs(corr) > 0.02 {
			t.Errorf("keys %d vs %d: correlation %g over shared counters", pk[0], pk[1], corr)
		}
	}
}

// TestStreamUniformBits applies a per-bit balance check to Uint64At: every
// output bit position should be ~50% ones across a counter range.
func TestStreamUniformBits(t *testing.T) {
	sub := NewStream(31).Derive(2)
	const n = 20000
	var ones [64]int
	for i := 0; i < n; i++ {
		v := sub.Uint64At(uint64(i))
		for b := 0; b < 64; b++ {
			ones[b] += int(v >> b & 1)
		}
	}
	for b, c := range ones {
		if math.Abs(float64(c)-n/2) > 6*math.Sqrt(n/4) {
			t.Errorf("bit %d: %d ones of %d draws", b, c, n)
		}
	}
}
