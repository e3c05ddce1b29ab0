package proximity

import (
	"strings"
	"sync/atomic"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/panicx"
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

// TestParallelBlocksPanicReachesCaller: a panic in a pool goroutine is
// re-raised on the caller's goroutine once the pool has stopped, where a
// recover can reach it, with the pool goroutine's stack.
func TestParallelBlocksPanicReachesCaller(t *testing.T) {
	var calls atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		parallelBlocks(64*block, 2, func(lo, _ int) {
			calls.Add(1)
			if lo == 3*block {
				panic("block 3 failed")
			}
		})
		return nil
	}()
	p, ok := got.(*panicx.Error)
	if !ok || p.Value != "block 3 failed" {
		t.Fatalf("parallelBlocks recovered %v, want block 3's panic", got)
	}
	if !strings.Contains(string(p.Stack), "parallelBlocks.func") {
		t.Fatalf("recovered panic's stack is not the pool goroutine's:\n%s", p.Stack)
	}
	if n := calls.Load(); n < 4 || n > 64 {
		t.Fatalf("%d blocks ran, want block 3 and at most all 64", n)
	}
}
