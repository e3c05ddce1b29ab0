package eval

import (
	"math"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// randomEmbedding fills an n×d matrix from a fixed seed.
func randomEmbedding(n, d int, seed uint64) *mathx.Matrix {
	rng := xrand.New(seed)
	m := mathx.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Normal()
	}
	return m
}

// serialStrucEqu is the pre-sharding reference implementation, kept here
// verbatim (append-ordered) to pin the parallel scan against.
func serialStrucEqu(g *graph.Graph, emb *mathx.Matrix) float64 {
	n := g.NumNodes()
	adjD := make([]float64, 0, n*(n-1)/2)
	embD := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		di := float64(g.Degree(i))
		for j := i + 1; j < n; j++ {
			sq := di + float64(g.Degree(j)) - 2*float64(g.CommonNeighbors(i, j))
			if sq < 0 {
				sq = 0
			}
			adjD = append(adjD, math.Sqrt(sq))
			embD = append(embD, mathx.EuclideanDistance(emb.Row(i), emb.Row(j)))
		}
	}
	return mathx.Pearson(adjD, embD)
}

// TestStrucEquWorkersEquivalence: the sharded scan must equal the serial
// reference bit for bit at several worker counts, on graphs whose row
// lengths are deliberately uneven.
func TestStrucEquWorkersEquivalence(t *testing.T) {
	for _, nodes := range []int{3, 17, 120} {
		g := graph.BarabasiAlbert(nodes, 2, xrand.New(7))
		emb := randomEmbedding(g.NumNodes(), 12, 3)
		want := serialStrucEqu(g, emb)
		for _, workers := range []int{0, 1, 2, 3, 4, 8, 64} {
			got := StrucEquWorkers(g, emb, workers)
			if got != want {
				t.Fatalf("nodes=%d workers=%d: StrucEqu %v, serial %v", nodes, workers, got, want)
			}
		}
		if got := StrucEqu(g, emb); got != want {
			t.Fatalf("nodes=%d: StrucEqu wrapper %v, serial %v", nodes, got, want)
		}
	}
}

// TestCommonNeighborsAboveMatchesMerge: the two-hop counts equal
// graph.CommonNeighbors for every pair j > i and leave the slots at or
// below i at zero, on random graphs of several shapes (hubs, dense
// blocks, isolated nodes).
func TestCommonNeighborsAboveMatchesMerge(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.ErdosRenyi(90, 700, xrand.New(1)),
		graph.ErdosRenyi(60, 20, xrand.New(2)),
		graph.BarabasiAlbert(150, 4, xrand.New(3)),
		graph.StochasticBlockModel(80, 3, 0.4, 0.02, xrand.New(4)),
	} {
		n := g.NumNodes()
		cn := make([]int32, n)
		for i := 0; i < n; i++ {
			clear(cn)
			commonNeighborsAbove(g, i, cn)
			for j := 0; j < n; j++ {
				want := 0
				if j > i {
					want = g.CommonNeighbors(i, j)
				}
				if int(cn[j]) != want {
					t.Fatalf("n=%d |E|=%d: count[%d][%d] = %d, want %d", n, g.NumEdges(), i, j, cn[j], want)
				}
			}
		}
	}
}

// TestStrucEquWorkersRandomGraphs: on random graphs of several shapes,
// StrucEquWorkers at 1, 2 and 4 workers equals the serial per-pair scan
// bit for bit.
func TestStrucEquWorkersRandomGraphs(t *testing.T) {
	for k, g := range []*graph.Graph{
		graph.ErdosRenyi(90, 700, xrand.New(5)),
		graph.StochasticBlockModel(80, 3, 0.4, 0.02, xrand.New(6)),
		graph.WattsStrogatz(100, 6, 0.2, xrand.New(7)),
	} {
		emb := randomEmbedding(g.NumNodes(), 9, uint64(k))
		want := serialStrucEqu(g, emb)
		for _, workers := range []int{1, 2, 4} {
			if got := StrucEquWorkers(g, emb, workers); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("graph %d workers=%d: StrucEqu %v, serial %v", k, workers, got, want)
			}
		}
	}
}

// TestLinkAUCWorkersEquivalence: sharded scoring must reproduce the serial
// AUC bit for bit at every worker count.
func TestLinkAUCWorkersEquivalence(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, xrand.New(11))
	split, err := SplitLinkPrediction(g, 0.2, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	emb := randomEmbedding(g.NumNodes(), 16, 9)
	score := func(u, v int) float64 { return mathx.Dot(emb.Row(u), emb.Row(v)) }
	want := LinkAUC(split, score)
	for _, workers := range []int{0, 2, 3, 7, 32} {
		if got := LinkAUCWorkers(split, score, workers); got != want {
			t.Fatalf("workers=%d: AUC %v, serial %v", workers, got, want)
		}
	}
}

// TestPairBase pins the triangular index layout the parallel scan relies on.
func TestPairBase(t *testing.T) {
	for _, n := range []int{2, 3, 5, 40} {
		at := 0
		for i := 0; i < n-1; i++ {
			if got := pairBase(i, n); got != at {
				t.Fatalf("n=%d: pairBase(%d) = %d, want %d", n, i, got, at)
			}
			at += n - 1 - i
		}
		if at != n*(n-1)/2 {
			t.Fatalf("n=%d: enumeration covers %d pairs, want %d", n, at, n*(n-1)/2)
		}
	}
}
