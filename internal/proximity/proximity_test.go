package proximity

import (
	"fmt"
	"math"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

// path graph 0-1-2-3 plus a triangle edge 0-2.
func pathWithTriangle(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestCommonNeighbors(t *testing.T) {
	g := pathWithTriangle(t)
	cn := NewCommonNeighbors(g)
	if got := cn.At(0, 1); got != 1 { // shared: 2
		t.Errorf("CN(0,1) = %g, want 1", got)
	}
	if got := cn.At(1, 3); got != 1 { // shared: 2
		t.Errorf("CN(1,3) = %g, want 1", got)
	}
	if got := cn.At(0, 3); got != 1 { // shared: 2
		t.Errorf("CN(0,3) = %g, want 1", got)
	}
	if got := cn.At(2, 2); got != 0 {
		t.Errorf("CN(2,2) = %g, want 0 on the diagonal", got)
	}
}

func TestRowMatchesAt(t *testing.T) {
	g := graph.ErdosRenyi(30, 80, xrand.New(1))
	measures := []Proximity{
		NewCommonNeighbors(g),
		NewAdamicAdar(g),
		NewResourceAllocation(g),
		NewPreferentialAttachment(g),
		NewDegree(g),
		NewKatz(g, 0.05, 4),
		NewDeepWalk(g),
	}
	for _, p := range measures {
		for i := 0; i < g.NumNodes(); i++ {
			row := p.Row(i)
			// entries sorted, positive, off-diagonal
			for k, e := range row {
				if e.P <= 0 {
					t.Fatalf("%s: row %d has non-positive entry %v", p.Name(), i, e)
				}
				if int(e.J) == i {
					t.Fatalf("%s: row %d contains the diagonal", p.Name(), i)
				}
				if k > 0 && row[k-1].J >= e.J {
					t.Fatalf("%s: row %d not strictly sorted", p.Name(), i)
				}
				if got := p.At(i, int(e.J)); math.Abs(got-e.P) > 1e-9 {
					t.Fatalf("%s: At(%d,%d) = %g but row says %g", p.Name(), i, e.J, got, e.P)
				}
			}
		}
	}
}

func TestSymmetry(t *testing.T) {
	// CN, AA, RA, PA, Katz are symmetric measures on undirected graphs.
	g := graph.ErdosRenyi(25, 60, xrand.New(2))
	for _, p := range []Proximity{
		NewCommonNeighbors(g),
		NewAdamicAdar(g),
		NewResourceAllocation(g),
		NewPreferentialAttachment(g),
		NewKatz(g, 0.05, 4),
	} {
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				a, b := p.At(i, j), p.At(j, i)
				if math.Abs(a-b) > 1e-9 {
					t.Errorf("%s: asymmetric at (%d,%d): %g vs %g", p.Name(), i, j, a, b)
				}
			}
		}
	}
}

func TestAdamicAdarManual(t *testing.T) {
	g := pathWithTriangle(t)
	aa := NewAdamicAdar(g)
	// Pair (0,1): shared neighbor 2 with degree 3 -> 1/log(3).
	want := 1 / math.Log(3)
	if got := aa.At(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("AA(0,1) = %g, want %g", got, want)
	}
}

func TestResourceAllocationManual(t *testing.T) {
	g := pathWithTriangle(t)
	ra := NewResourceAllocation(g)
	// Pair (0,1): shared neighbor 2 with degree 3 -> 1/3.
	if got := ra.At(0, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("RA(0,1) = %g, want 1/3", got)
	}
	// Pair (1,3): shared neighbor 2 -> 1/3.
	if got := ra.At(1, 3); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("RA(1,3) = %g, want 1/3", got)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := pathWithTriangle(t)
	pa := NewPreferentialAttachment(g)
	// degrees: d0=2 d1=2 d2=3 d3=1, d_max=3.
	if got, want := pa.At(0, 2), 2.0*3/9; math.Abs(got-want) > 1e-12 {
		t.Errorf("PA(0,2) = %g, want %g", got, want)
	}
	// Row 3 sums to d3·(D − d3)/9 = 1·(8 − 1)/9.
	var sum float64
	for _, e := range pa.Row(3) {
		sum += e.P
	}
	if math.Abs(sum-7.0/9) > 1e-12 {
		t.Errorf("PA row 3 sums to %g, want 7/9", sum)
	}
}

func TestKatzTruncationOrder(t *testing.T) {
	// On the 4-path-with-chord, Katz(0,1) at L=1 is beta (direct edge);
	// adding L=2 adds beta² per 2-walk 0→2→1: one such walk.
	g := pathWithTriangle(t)
	beta := 0.1
	k1 := NewKatz(g, beta, 1)
	if got := k1.At(0, 1); math.Abs(got-beta) > 1e-12 {
		t.Errorf("Katz L=1 (0,1) = %g, want %g", got, beta)
	}
	k2 := NewKatz(g, beta, 2)
	want := beta + beta*beta
	if got := k2.At(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Katz L=2 (0,1) = %g, want %g", got, want)
	}
}

func TestPageRankRowIsSubstochastic(t *testing.T) {
	g := graph.ErdosRenyi(40, 100, xrand.New(4))
	pr := NewPageRank(g, 0.85, 1e-6)
	for i := 0; i < g.NumNodes(); i += 7 {
		var sum float64
		for _, e := range pr.Row(i) {
			sum += e.P
		}
		if sum > 1+1e-9 {
			t.Errorf("PPR row %d sums to %g > 1", i, sum)
		}
		if g.Degree(i) > 0 && sum <= 0 {
			t.Errorf("PPR row %d empty for a connected node", i)
		}
	}
}

func TestPageRankConcentratesNearSource(t *testing.T) {
	// On a long path, PPR mass at the source's neighbor must exceed the
	// mass four hops away.
	b := graph.NewBuilder(10)
	for i := 0; i < 9; i++ {
		_ = b.AddEdge(i, i+1)
	}
	g := b.Build()
	pr := NewPageRank(g, 0.85, 1e-8)
	if pr.At(0, 1) <= pr.At(0, 5) {
		t.Errorf("PPR(0,1)=%g should exceed PPR(0,5)=%g", pr.At(0, 1), pr.At(0, 5))
	}
}

func TestDeepWalkRowSumClosedForm(t *testing.T) {
	// Σ_{j≠i} p_ij = ½·d_i + ½·Σ_{w∈N(i)} (d_w − 1)/d_w from the
	// co-occurrence definition.
	g := graph.ErdosRenyi(30, 70, xrand.New(5))
	dw := NewDeepWalk(g)
	for i := 0; i < g.NumNodes(); i++ {
		var sum float64
		for _, e := range dw.Row(i) {
			sum += e.P
		}
		want := 0.5 * float64(g.Degree(i))
		for _, w := range g.Neighbors(i) {
			dwg := float64(g.Degree(int(w)))
			want += 0.5 * (dwg - 1) / dwg
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Errorf("DeepWalk row %d sums to %g, want %g", i, sum, want)
		}
	}
}

func TestDeepWalkManual(t *testing.T) {
	// Triangle 0-1-2: p_01 = ½(A_01 + 1/d_2) = ½(1 + ½) = ¾.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(0, 2)
	dw := NewDeepWalk(b.Build())
	if got := dw.At(0, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("DeepWalk(0,1) = %g, want 0.75", got)
	}
}

func TestDeepWalkSymmetric(t *testing.T) {
	// Stationary co-occurrence is symmetric by construction.
	g := graph.ErdosRenyi(25, 60, xrand.New(6))
	dw := NewDeepWalk(g)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if a, b := dw.At(i, j), dw.At(j, i); math.Abs(a-b) > 1e-12 {
				t.Errorf("DeepWalk asymmetric at (%d,%d): %g vs %g", i, j, a, b)
			}
		}
	}
}

// edgePairs returns g's edges as (U, V) pairs, in edge-list order.
func edgePairs(g *graph.Graph) []Pair {
	edges := g.Edges()
	pairs := make([]Pair, len(edges))
	for k, e := range edges {
		pairs[k] = Pair{I: e.U, J: e.V}
	}
	return pairs
}

// TestEdgeWeights: the weight fill over a graph's edges yields At of each
// edge, in edge-list order.
func TestEdgeWeights(t *testing.T) {
	g := pathWithTriangle(t)
	dw := NewDeepWalk(g)
	w := PairWeights(dw, edgePairs(g), 1)
	if len(w) != g.NumEdges() {
		t.Fatalf("%d edge weights, want %d", len(w), g.NumEdges())
	}
	for idx, e := range g.Edges() {
		if want := dw.At(int(e.U), int(e.V)); w[idx] != want {
			t.Errorf("edge %d weight %g, want %g", idx, w[idx], want)
		}
	}
}

func TestByName(t *testing.T) {
	g := pathWithTriangle(t)
	for _, name := range []string{"deepwalk", "dw", "degree", "deg", "cn",
		"common-neighbors", "pa", "preferential-attachment", "aa",
		"adamic-adar", "ra", "resource-allocation", "katz", "pagerank", "ppr"} {
		p, err := ByName(name, g)
		if err != nil {
			t.Errorf("ByName(%q) error: %v", name, err)
			continue
		}
		if p.NumNodes() != 4 {
			t.Errorf("ByName(%q).NumNodes() = %d", name, p.NumNodes())
		}
	}
	if _, err := ByName("bogus", g); err == nil {
		t.Error("ByName(bogus) did not error")
	}
}

func TestSparseAndMaterialize(t *testing.T) {
	s := NewSparse("test", [][]Entry{
		{{J: 2, P: 0.5}, {J: 1, P: 0.25}, {J: 3, P: 0}}, // unsorted + zero entry
		nil,
		{{J: 0, P: 1}},
		nil,
	})
	if s.At(0, 1) != 0.25 || s.At(0, 2) != 0.5 || s.At(0, 3) != 0 {
		t.Errorf("Sparse At wrong: %v", s.Row(0))
	}
	if len(s.Row(0)) != 2 {
		t.Errorf("zero entry not dropped: %v", s.Row(0))
	}
	m := Materialize(s)
	if m.At(2, 0) != 1 {
		t.Error("Materialize lost an entry")
	}
}

func TestConstructorPanics(t *testing.T) {
	g := pathWithTriangle(t)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Katz bad beta", func() { NewKatz(g, 0, 3) })
	mustPanic("Katz bad len", func() { NewKatz(g, 0.1, 0) })
	mustPanic("PageRank bad alpha", func() { NewPageRank(g, 1.5, 1e-5) })
	mustPanic("PageRank bad eps", func() { NewPageRank(g, 0.85, 0) })
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mustPanic(fmt.Sprintf("Katz beta %g", v), func() { NewKatz(g, v, 3) })
		mustPanic(fmt.Sprintf("PageRank alpha %g", v), func() { NewPageRank(g, v, 1e-5) })
		mustPanic(fmt.Sprintf("PageRank eps %g", v), func() { NewPageRank(g, 0.85, v) })
	}
}
