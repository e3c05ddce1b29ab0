package core

import (
	"slices"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

func ring(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestGenerateSubgraphsShape(t *testing.T) {
	g := ring(t, 20)
	subs, err := GenerateSubgraphs(g, 5, NegUniform, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != g.NumEdges() {
		t.Fatalf("got %d subgraphs, want |E| = %d", len(subs), g.NumEdges())
	}
	for _, s := range subs {
		if len(s.Negs) != 5 {
			t.Fatalf("subgraph has %d negatives, want 5", len(s.Negs))
		}
		if !g.HasEdge(int(s.I), int(s.J)) {
			t.Fatalf("positive pair (%d,%d) is not an edge", s.I, s.J)
		}
		for _, n := range s.Negs {
			if n == s.I {
				t.Fatalf("negative equals the center node %d", s.I)
			}
			if g.HasEdge(int(s.I), int(n)) {
				t.Fatalf("negative (%d,%d) is an edge, violating Algorithm 1", s.I, n)
			}
		}
	}
}

func TestGenerateSubgraphsOrientationMixes(t *testing.T) {
	g := ring(t, 100)
	subs, err := GenerateSubgraphs(g, 1, NegUniform, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	swapped := 0
	for _, s := range subs {
		if s.I > s.J {
			swapped++
		}
	}
	if swapped == 0 || swapped == len(subs) {
		t.Errorf("edge orientation never varied: %d/%d swapped", swapped, len(subs))
	}
}

func TestGenerateSubgraphsDegreeSampling(t *testing.T) {
	// Star graph: center 0 has degree n-1, leaves degree 1. Degree-based
	// sampling must pick the hub far more often than uniform would.
	n := 50
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(0, i)
	}
	// Add one leaf-leaf edge so node 0 is a legal negative for its center.
	_ = b.AddEdge(1, 2)
	g := b.Build()
	subs, err := GenerateSubgraphs(g, 3, NegDegree, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		for _, neg := range s.Negs {
			if neg == s.I {
				t.Fatalf("self negative for center %d", s.I)
			}
			// The hub is adjacent to every other node, so its negatives go
			// through the documented fallback and may touch edges; all
			// other centers must respect the Algorithm 1 constraint.
			if g.Degree(int(s.I)) < g.NumNodes()-1 && g.HasEdge(int(s.I), int(neg)) {
				t.Fatalf("invalid degree-sampled negative (%d, %d)", s.I, neg)
			}
		}
	}
}

func TestGenerateSubgraphsErrors(t *testing.T) {
	g := ring(t, 5)
	if _, err := GenerateSubgraphs(g, 0, NegUniform, xrand.New(1)); err == nil {
		t.Error("k=0 accepted")
	}
	single := graph.NewBuilder(1).Build()
	if _, err := GenerateSubgraphs(single, 1, NegUniform, xrand.New(1)); err == nil {
		t.Error("1-node graph accepted")
	}
}

func TestGenerateSubgraphsNearCompleteGraph(t *testing.T) {
	// K4 minus nothing: every non-self pair is an edge, so rejection
	// sampling can never succeed and the fallback path must engage.
	b := graph.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			_ = b.AddEdge(i, j)
		}
	}
	g := b.Build()
	subs, err := GenerateSubgraphs(g, 2, NegUniform, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		for _, n := range s.Negs {
			if n == s.I {
				t.Fatal("fallback produced a self negative")
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if StrategyNonZero.String() != "non-zero" || StrategyNaive.String() != "naive" {
		t.Error("Strategy.String wrong")
	}
	if NegUniform.String() != "uniform" || NegDegree.String() != "degree" {
		t.Error("NegSampling.String wrong")
	}
	if Strategy(9).String() == "" || NegSampling(9).String() == "" {
		t.Error("unknown values should still print")
	}
}

// referenceSubgraphs is Algorithm 1 as one loop over the edges: each
// edge seeds its RNG off the counter stream at its index, draws its
// orientation coin, then rejection-samples its k negatives against
// g.HasEdge. GenerateSubgraphsWorkers groups the edges by center and
// rejects by a mark array instead; it must return the same subgraphs.
func referenceSubgraphs(g *graph.Graph, k int, ns NegSampling, rng *xrand.RNG) []Subgraph {
	n := g.NumNodes()
	var degreeAlias *xrand.Alias
	if ns == NegDegree {
		w := make([]float64, n)
		for u := range w {
			w[u] = float64(g.Degree(u))
		}
		degreeAlias, _ = xrand.NewAlias(w)
	}
	const maxTries = 256
	st := xrand.NewStream(rng.Uint64())
	subs := make([]Subgraph, g.NumEdges())
	for ei, e := range g.Edges() {
		erng := xrand.New(0)
		erng.Reseed(st.Derive(uint64(ei)).Uint64At(0))
		i, j := e.U, e.V
		if erng.Float64() < 0.5 {
			i, j = j, i
		}
		s := Subgraph{I: i, J: j}
		for t := 0; t < k; t++ {
			var vn int
			ok := false
			for tries := 0; tries < maxTries; tries++ {
				if degreeAlias != nil {
					vn = degreeAlias.Sample(erng)
				} else {
					vn = erng.Intn(n)
				}
				if vn != int(i) && !g.HasEdge(int(i), vn) {
					ok = true
					break
				}
			}
			if !ok {
				for vn == int(i) {
					vn = erng.Intn(n)
				}
			}
			s.Negs = append(s.Negs, int32(vn))
		}
		subs[ei] = s
	}
	return subs
}

// TestGenerateSubgraphsMatchesReference pins Algorithm 1 to the per-edge
// reference loop, for both negative distributions and at every worker
// count: on a power-law graph whose hubs center many edges, on a
// near-complete graph whose centers exhaust maxTries and take the
// fallback, and on a graph with isolated nodes, which center nothing.
func TestGenerateSubgraphsMatchesReference(t *testing.T) {
	near := graph.NewBuilder(12)
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if u != 0 || v != 11 {
				if err := near.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	isolated := graph.NewBuilder(60)
	for u := 0; u < 40; u += 2 {
		if err := isolated.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
		if err := isolated.AddEdge(u, (u+7)%40); err != nil {
			t.Fatal(err)
		}
	}
	for gname, g := range map[string]*graph.Graph{
		"ba":            graph.BarabasiAlbert(500, 4, xrand.New(7)),
		"near-complete": near.Build(),
		"isolated":      isolated.Build(),
	} {
		for _, ns := range []NegSampling{NegUniform, NegDegree} {
			want := referenceSubgraphs(g, 5, ns, xrand.New(11))
			for _, workers := range []int{1, 2, 7, 100000} {
				got, err := GenerateSubgraphsWorkers(g, 5, ns, xrand.New(11), workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s workers=%d: %d subgraphs, want %d", gname, ns, workers, len(got), len(want))
				}
				for x := range want {
					if got[x].I != want[x].I || got[x].J != want[x].J || !slices.Equal(got[x].Negs, want[x].Negs) {
						t.Fatalf("%s/%s workers=%d: subgraph %d = %+v, reference %+v", gname, ns, workers, x, got[x], want[x])
					}
				}
			}
		}
	}
}
