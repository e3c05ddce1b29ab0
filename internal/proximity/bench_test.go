package proximity

import (
	"fmt"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

// BenchmarkProximityMaterialize tracks the sharded row construction on a
// power-law graph for the measures the figure sweeps exercise. Results are
// identical at every worker count; only wall-clock differs (speedups need
// a multi-core host — see ROADMAP).
func BenchmarkProximityMaterialize(b *testing.B) {
	g := graph.BarabasiAlbert(1500, 4, xrand.New(1))
	measures := []struct {
		name string
		p    Proximity
	}{
		{"deepwalk", NewDeepWalk(g)},
		{"katz", NewKatz(g, 0.05, 3)},
		{"pagerank", NewPageRank(g, 0.85, 1e-4)},
	}
	for _, m := range measures {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sx%d", m.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MaterializeParallel(m.p, w)
				}
			})
		}
	}
}

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
