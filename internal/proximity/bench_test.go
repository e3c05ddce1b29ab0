package proximity

import (
	"fmt"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

// BenchmarkEdgeWeightsWorkers tracks the sharded weight fill over a
// graph's edges (PairWeights over edgePairs) on a row-building measure,
// where PairWeights builds one Katz row per distinct source.
func BenchmarkEdgeWeightsWorkers(b *testing.B) {
	g := graph.BarabasiAlbert(800, 4, xrand.New(1))
	p := NewKatz(g, 0.05, 3)
	pairs := edgePairs(g)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("x%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PairWeights(p, pairs, w)
			}
		})
	}
}
