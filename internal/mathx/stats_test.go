package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !AlmostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %g, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !AlmostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %g, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant x = %g, want 0", got)
	}
	if got := Pearson([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("Pearson with n=1 = %g, want 0", got)
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(xs [8]float64, ys [8]float64) bool {
		x := xs[:]
		y := ys[:]
		for _, v := range append(append([]float64{}, x...), y...) {
			// Reject values whose products overflow float64; the metric is
			// only used on bounded distances in practice.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %g, want 0.5", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %g, want 1", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %g, want 0", got)
	}
	// Symmetry: σ(x) + σ(-x) = 1.
	for _, x := range []float64{-3, -0.7, 0.2, 5} {
		if s := Sigmoid(x) + Sigmoid(-x); !AlmostEqual(s, 1, 1e-12) {
			t.Errorf("Sigmoid(%g)+Sigmoid(-%g) = %g, want 1", x, x, s)
		}
	}
}

func TestLogSigmoid(t *testing.T) {
	for _, x := range []float64{-20, -1, 0, 1, 20} {
		want := math.Log(Sigmoid(x))
		if got := LogSigmoid(x); !AlmostEqual(got, want, 1e-9) {
			t.Errorf("LogSigmoid(%g) = %g, want %g", x, got, want)
		}
	}
	// Extreme negative does not produce -Inf from log(0); it tracks x.
	if got := LogSigmoid(-800); !AlmostEqual(got, -800, 1e-9) {
		t.Errorf("LogSigmoid(-800) = %g, want approx -800", got)
	}
}

// TestSigmoidLogsMatchesStandalone pins the shared-exp helper to the
// standalone Sigmoid and LogSigmoid bit for bit — NaN payloads included —
// at the branch edges (±0), the underflow and overflow ranges and the
// infinities.
func TestSigmoidLogsMatchesStandalone(t *testing.T) {
	xs := []float64{0, 1, 700, 1e-300, 5e-324, 36.7, 745.2, math.Inf(1), math.NaN()}
	for _, x := range append(xs, negateAll(xs)...) {
		sig, logSig, logSigNeg := SigmoidLogs(x)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Sigmoid", sig, Sigmoid(x)},
			{"LogSigmoid", logSig, LogSigmoid(x)},
			{"LogSigmoid(-x)", logSigNeg, LogSigmoid(-x)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%s at x=%g (bits %#x): got %v (bits %#x), want %v (bits %#x)",
					c.name, x, math.Float64bits(x), c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
			}
		}
	}
}

func negateAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

func TestLogSumExp(t *testing.T) {
	xs := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(xs); !AlmostEqual(got, math.Log(6), 1e-12) {
		t.Errorf("LogSumExp = %g, want log 6", got)
	}
	// Huge values do not overflow.
	if got := LogSumExp([]float64{1000, 1000}); !AlmostEqual(got, 1000+math.Log(2), 1e-9) {
		t.Errorf("LogSumExp(big) = %g", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %g, want -Inf", got)
	}
}

func TestLogBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {52, 5, 2598960},
	}
	for _, c := range cases {
		if got := math.Exp(LogBinomial(c.n, c.k)); !AlmostEqual(got, c.want, c.want*1e-9) {
			t.Errorf("exp(LogBinomial(%d, %d)) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
	// Pascal's rule as a property: C(n,k) = C(n-1,k-1) + C(n-1,k).
	for n := 2; n <= 60; n += 7 {
		for k := 1; k < n; k += 3 {
			lhs := math.Exp(LogBinomial(n, k))
			rhs := math.Exp(LogBinomial(n-1, k-1)) + math.Exp(LogBinomial(n-1, k))
			if math.Abs(lhs-rhs) > 1e-9*math.Abs(rhs) {
				t.Errorf("Pascal rule fails at (%d, %d): %g vs %g", n, k, lhs, rhs)
			}
		}
	}
}

func TestLogBinomialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogBinomial(3, 5) did not panic")
		}
	}()
	LogBinomial(3, 5)
}

func TestDigestFloat64s(t *testing.T) {
	a := []float64{1.5, -2.25, 0, 3.75}
	if DigestFloat64s(a) != DigestFloat64s(append([]float64{}, a...)) {
		t.Error("equal slices digest differently")
	}
	b := append([]float64{}, a...)
	b[2] = math.Copysign(0, -1) // -0.0: distinct bit pattern from +0.0 must change the digest
	if DigestFloat64s(a) == DigestFloat64s(b) {
		t.Error("digest ignores the sign bit of zero")
	}
	// Matches the word-by-word accumulator it is built on.
	h := NewFNV64()
	for _, x := range a {
		h.Word(math.Float64bits(x))
	}
	if DigestFloat64s(a) != h.Sum() {
		t.Error("DigestFloat64s diverges from FNV64.Word folding")
	}
}
