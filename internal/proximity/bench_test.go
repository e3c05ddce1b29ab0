package proximity

import (
	"fmt"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

// BenchmarkEdgeWeightsWorkers tracks the sharded weight fill over a
// graph's edges (PairWeights over edgePairs) on the measures with their
// own fill: Katz (Katz.fill), x<w> at L = 3 and L6/x<w> at the served
// shape, ByName("katz") with L = 6; and the two-hop fill (twoHop.fill),
// dw/x<w> on DeepWalk, whose adjacency ½ rides in the sum, and aa/x<w>
// on Adamic–Adar.
func BenchmarkEdgeWeightsWorkers(b *testing.B) {
	g := graph.BarabasiAlbert(800, 4, xrand.New(1))
	served, err := ByName("katz", g)
	if err != nil {
		b.Fatal(err)
	}
	pairs := edgePairs(g)
	for _, c := range []struct {
		prefix string
		p      Proximity
	}{{"", NewKatz(g, 0.05, 3)}, {"L6/", served}, {"dw/", NewDeepWalk(g)}, {"aa/", NewAdamicAdar(g)}} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sx%d", c.prefix, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					PairWeights(c.p, pairs, w)
				}
			})
		}
	}
}
