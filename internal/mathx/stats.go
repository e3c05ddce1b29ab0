package mathx

import (
	"fmt"
	"math"
)

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either input has zero variance (a degenerate case the
// StrucEqu metric treats as "no structure recovered").
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Pearson length mismatch %d != %d", len(x), len(y)))
	}
	n := len(x)
	if n < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Sigmoid returns 1/(1+exp(-x)), computed in a branch that avoids overflow
// for large negative x.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LogSigmoid returns log(σ(x)) computed stably: for very negative x it
// degrades to x rather than log(0).
func LogSigmoid(x float64) float64 {
	if x >= 0 {
		return -math.Log1p(math.Exp(-x))
	}
	return x - math.Log1p(math.Exp(x))
}

// SigmoidLogs returns Sigmoid(x), LogSigmoid(x) and LogSigmoid(-x), each
// bit-identical to the standalone call, from one math.Exp and one
// math.Log1p: all three evaluate the same exp(−|x|) (taken as exp(−x) or
// exp(x) on exactly the branches the standalone forms take), and the two
// logs share log1p of it. The skip-gram pass needs σ and one log σ per
// dot product; this halves its transcendental calls.
func SigmoidLogs(x float64) (sig, logSig, logSigNeg float64) {
	var e float64
	if x >= 0 {
		e = math.Exp(-x)
		sig = 1 / (1 + e)
	} else {
		e = math.Exp(x)
		sig = e / (1 + e)
	}
	l := math.Log1p(e)
	if x >= 0 {
		logSig = -l
	} else {
		logSig = x - l
	}
	if -x >= 0 {
		logSigNeg = -l
	} else {
		logSigNeg = -x - l
	}
	return sig, logSig, logSigNeg
}

// LogSumExp returns log(Σ exp(xs)) computed stably.
// It returns -Inf for an empty input.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range xs {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// LogBinomial returns log(n choose k) using log-gamma, valid for large n
// where the binomial itself would overflow. It panics for k < 0 or k > n.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n {
		panic(fmt.Sprintf("mathx: LogBinomial(%d, %d) out of range", n, k))
	}
	if k == 0 || k == n {
		return 0
	}
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	return lg(float64(n)+1) - lg(float64(k)+1) - lg(float64(n-k)+1)
}

// AlmostEqual reports whether a and b differ by at most tol, treating NaN
// as never equal.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}
