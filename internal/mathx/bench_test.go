package mathx

import (
	"fmt"
	"testing"
)

// Kernel-level benchmarks for the bench-JSON trajectory (BENCH_pr7.json
// and successors): the four-lane reductions and AXPY, each at the paper's
// r=128 row width plus a short and a long variant to expose tail overhead
// and bandwidth limits. `make bench-json` records them; `make bench-diff`
// trips on >10% ns/op regressions.

var benchSizes = []int{16, 128, 1024}

// sinkF keeps reduction results alive without per-iteration writes the
// compiler could sink.
var sinkF float64

func benchVecs(n int) (x, y []float64) {
	return fill(n, 101), fill(n, 202)
}

func BenchmarkDot(b *testing.B) {
	for _, n := range benchSizes {
		x, y := benchVecs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot(x, y)
			}
			sinkF = s
		})
	}
}

func BenchmarkNorm2Sq(b *testing.B) {
	for _, n := range benchSizes {
		x, _ := benchVecs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			var s float64
			for i := 0; i < b.N; i++ {
				s += Norm2Sq(x)
			}
			sinkF = s
		})
	}
}

func BenchmarkAXPY(b *testing.B) {
	for _, n := range benchSizes {
		x, y := benchVecs(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(24 * n))
			for i := 0; i < b.N; i++ {
				AXPY(1e-9, x, y)
			}
		})
	}
}
