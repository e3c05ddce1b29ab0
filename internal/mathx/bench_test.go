package mathx

import (
	"fmt"
	"math"
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

// BenchmarkRowKernels times the three per-example row operations at one
// skip-gram example's shape (k+1 = 6 rows of r = 128) with the Go loops
// and, on a host that has them, the AVX-512 kernels. SumScaledNorm2Sq-
// Subnormal is the clip norm of an example with one tiny coefficient
// (1e-160 among five of order 0.1–1, against |v_I| ≈ 1e-2), whose squares
// would be subnormal: the shape the tiny-row skip leaves out.
func BenchmarkRowKernels(b *testing.B) {
	const k1, n = 6, 128
	x := fill(n, 301)
	coef := fill(k1, 302)
	rows := make([][]float64, k1)
	for i := range rows {
		rows[i] = fill(n, uint64(303+i))
	}
	vI := make([]float64, n)
	for d := range vI {
		vI[d] = math.Copysign(1e-2*(0.5+float64(d%16)/10), float64(d%3)-1)
	}
	subCoef := []float64{0.9, -0.31, 0.17, 1e-160, -0.42, 0.08}
	out, dst := make([]float64, k1), make([]float64, n)
	ops := []struct {
		name string
		run  func() float64
	}{
		{"DotRows", func() float64 { DotRows(out, x, rows); return out[0] }},
		{"SumScaledNorm2Sq", func() float64 { return SumScaledNorm2Sq(coef, x) }},
		{"SumScaledNorm2SqSubnormal", func() float64 { return SumScaledNorm2Sq(subCoef, vI) }},
		{"AXPYRows", func() float64 { return AXPYRows(dst, coef, rows) }},
	}
	host := UseAVX512
	defer func() { UseAVX512 = host }()
	for _, op := range ops {
		for _, kernels := range []bool{false, true} {
			name := op.name + "/go"
			if kernels {
				name = op.name + "/avx512"
			}
			b.Run(name, func(b *testing.B) {
				if kernels && !host {
					b.Skip("no AVX-512 on this host")
				}
				UseAVX512 = kernels
				var s float64
				for i := 0; i < b.N; i++ {
					s += op.run()
				}
				sinkF = s
			})
		}
	}
}
