package skipgram

import (
	"testing"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// sinkLoss keeps the benchmarked loss alive.
var sinkLoss float64

// BenchmarkLossGradients times one example's forward+backward at the
// paper's K = 5 negatives and r = 128, with the Go loops (go) and, on a
// host that has them, the AVX-512 row kernels (avx512).
func BenchmarkLossGradients(b *testing.B) {
	const n, r = 64, 128
	m := New(n, r, xrand.New(3))
	ex := Example{I: 7, J: 11, Negs: []int32{2, 19, 33, 40, 58}, W: 0.8}
	var g Grads
	host := mathx.UseAVX512
	defer func() { mathx.UseAVX512 = host }()
	for _, kernels := range []bool{false, true} {
		name := "go"
		if kernels {
			name = "avx512"
		}
		b.Run(name, func(b *testing.B) {
			if kernels && !host {
				b.Skip("no AVX-512 on this host")
			}
			mathx.UseAVX512 = kernels
			var s float64
			for i := 0; i < b.N; i++ {
				s += m.LossGradients(ex, &g)
			}
			sinkLoss = s
		})
	}
}
