package proximity

import (
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

// TestEdgeWeightsWorkersMatchesSerial pins the sharded weight fill over a
// graph's edges (PairWeights over edgePairs) to the serial one.
func TestEdgeWeightsWorkersMatchesSerial(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, xrand.New(9))
	measures := []Proximity{
		NewDeepWalk(g),
		NewKatz(g, 0.05, 4),
		NewPageRank(g, 0.85, 1e-4),
	}
	for _, p := range measures {
		serial := PairWeights(p, edgePairs(g), 1)
		for _, workers := range []int{2, 4, 7, 10000} { // 10000 > |E| exercises the clamp
			par := PairWeights(p, edgePairs(g), workers)
			if len(par) != len(serial) {
				t.Fatalf("%s workers=%d: %d weights vs %d", p.Name(), workers, len(par), len(serial))
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Fatalf("%s workers=%d: weight[%d] = %v vs serial %v",
						p.Name(), workers, i, par[i], serial[i])
				}
			}
		}
	}
}

// TestAtMatchesMaterializedEverywhere pins the contract the serving
// layer's dedup rests on: a measure NAME identifies one numeric function,
// so the lazy At and the materialized row must agree bit for bit on every
// pair (floating-point addend order included — see DeepWalk.At). The
// weight fill reads At for some measures and whole rows for others
// (PairWeights), so without this one measure name would train
// ULP-different embeddings depending on the path its weights took.
func TestAtMatchesMaterializedEverywhere(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, xrand.New(5))
	for _, name := range []string{
		"deepwalk", "degree", "common-neighbors", "preferential-attachment",
		"adamic-adar", "resource-allocation", "katz", "pagerank",
	} {
		p, err := ByName(name, g)
		if err != nil {
			t.Fatal(err)
		}
		mat := Materialize(p)
		for i := 0; i < g.NumNodes(); i++ {
			for j := 0; j < g.NumNodes(); j++ {
				if a, b := p.At(i, j), mat.At(i, j); a != b {
					t.Fatalf("%s: At(%d,%d) = %v lazy vs %v materialized", name, i, j, a, b)
				}
			}
		}
	}
}
