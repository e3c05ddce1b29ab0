package proximity

import (
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

// mapKatzRow is the map-based Katz row, the reference the dense row
// build must reproduce bit for bit. Its frontier is summed in ascending
// node order; on graphs whose walk counts stay below 2^53 every order
// gives the same exact sums.
func mapKatzRow(k *Katz, i int) []Entry {
	cur := map[int32]float64{int32(i): 1}
	acc := make(map[int32]float64)
	scale := 1.0
	for l := 1; l <= k.l && len(cur) > 0; l++ {
		us := make([]int32, 0, len(cur))
		for u := range cur {
			us = append(us, u)
		}
		sort.Slice(us, func(a, b int) bool { return us[a] < us[b] })
		next := make(map[int32]float64, len(cur)*2)
		for _, u := range us {
			for _, v := range k.g.Neighbors(int(u)) {
				next[v] += cur[u]
			}
		}
		scale *= k.beta
		for j, c := range next {
			acc[j] += scale * c
		}
		cur = next
	}
	delete(acc, int32(i))
	row := make([]Entry, 0, len(acc))
	for j, p := range acc {
		row = append(row, Entry{J: j, P: p})
	}
	return sortRow(row)
}

// mapPageRankRow is the map-based forward push, the reference for the
// dense PageRank row build.
func mapPageRankRow(p *PageRank, i int) []Entry {
	est := make(map[int32]float64)
	residual := map[int32]float64{int32(i): 1}
	queue := []int32{int32(i)}
	inQueue := map[int32]bool{int32(i): true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		r := residual[u]
		d := p.g.Degree(int(u))
		if d == 0 {
			est[u] += r
			residual[u] = 0
			continue
		}
		if r < p.eps*float64(d) {
			continue
		}
		est[u] += (1 - p.alpha) * r
		residual[u] = 0
		share := p.alpha * r / float64(d)
		for _, v := range p.g.Neighbors(int(u)) {
			residual[v] += share
			if !inQueue[v] && residual[v] >= p.eps*float64(p.g.Degree(int(v))) {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	delete(est, int32(i))
	row := make([]Entry, 0, len(est))
	for j, v := range est {
		row = append(row, Entry{J: j, P: v})
	}
	return sortRow(row)
}

// forestWithHub is a hub joined to a path, two isolated nodes and a
// separate triangle: rows that reach everything, rows that reach one
// component, and empty rows.
func forestWithHub(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(40)
	for v := 1; v < 25; v++ {
		if err := b.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	for v := 25; v < 34; v++ {
		if err := b.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int{{24, 25}, {36, 37}, {37, 38}, {36, 38}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func sameRow(t *testing.T, what string, i int, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s row %d: %d entries, want %d", what, i, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s row %d entry %d: %+v, want %+v", what, i, k, got[k], want[k])
		}
	}
}

// TestDenseRowsMatchMapReference pins the pooled dense row builds of
// Katz and PageRank to the map-based builds bit for bit, on every row of
// graphs with hubs, isolated nodes and several components — and builds
// every row twice, so a workspace left dirty by one build would show up
// in the next.
func TestDenseRowsMatchMapReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":     graph.BarabasiAlbert(300, 3, xrand.New(4)),
		"forest": forestWithHub(t),
		"er":     graph.ErdosRenyi(200, 300, xrand.New(6)),
	}
	for gname, g := range graphs {
		for _, k := range []*Katz{NewKatz(g, 0.05, 6), NewKatz(g, 0.2, 1), NewKatz(g, 0.1, 3)} {
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < g.NumNodes(); i++ {
					sameRow(t, gname+"/katz", i, k.Row(i), mapKatzRow(k, i))
				}
			}
		}
		for _, p := range []*PageRank{NewPageRank(g, 0.85, 1e-5), NewPageRank(g, 0.5, 1e-3)} {
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < g.NumNodes(); i++ {
					sameRow(t, gname+"/pagerank", i, p.Row(i), mapPageRankRow(p, i))
				}
			}
		}
	}
}

// TestKatzRowReproducibleBeyondExactCounts: on a dense graph the walk
// counts of length 12 pass 2^53, where float64 sums stop being exact and
// their order matters. Every build of a row (Materialize's, or the
// weight fill's at any worker count) must still return the same bits;
// summing the frontier in map iteration order made most entries differ
// from build to build.
func TestKatzRowReproducibleBeyondExactCounts(t *testing.T) {
	g := graph.ErdosRenyi(120, 3500, xrand.New(3))
	k := NewKatz(g, 0.1, 12)
	if count := math.Pow(g.MeanDegree(), 12) / float64(g.NumNodes()); count < 1<<60 {
		t.Fatalf("typical walk counts reach only ~%g; the test needs counts far past 2^53", count)
	}
	want := Materialize(k)
	n := g.NumNodes()
	pairs := make([]Pair, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pairs = append(pairs, Pair{int32(i), int32(j)})
		}
	}
	for _, workers := range []int{1, 3} {
		for pass := 0; pass < 3; pass++ {
			got := PairWeights(k, pairs, workers)
			for x, pr := range pairs {
				if w := want.At(int(pr.I), int(pr.J)); got[x] != w {
					t.Fatalf("workers=%d pass %d: weight(%d,%d) = %v, want %v",
						workers, pass, pr.I, pr.J, got[x], w)
				}
			}
		}
	}
}

// pairsFor returns every edge in both orientations, self pairs, repeats
// and non-adjacent pairs, shuffled, so sources recur far apart.
func pairsFor(g *graph.Graph, rng *xrand.RNG) []Pair {
	var pairs []Pair
	for _, e := range g.Edges() {
		pairs = append(pairs, Pair{e.U, e.V}, Pair{e.V, e.U})
	}
	n := g.NumNodes()
	for k := 0; k < n; k++ {
		pairs = append(pairs,
			Pair{int32(rng.Intn(n)), int32(rng.Intn(n))},
			Pair{int32(k), int32(k)})
	}
	pairs = append(pairs, pairs[:n]...)
	for k := len(pairs) - 1; k > 0; k-- {
		j := rng.Intn(k + 1)
		pairs[k], pairs[j] = pairs[j], pairs[k]
	}
	return pairs
}

// TestPairWeightsMatchesAt pins the fill's contract: for every measure,
// at every worker count, weight k is bit for bit At(pairs[k]) — the
// grouped row-per-source path of Katz/PageRank included.
func TestPairWeightsMatchesAt(t *testing.T) {
	for gname, g := range map[string]*graph.Graph{
		"ba":     graph.BarabasiAlbert(150, 3, xrand.New(9)),
		"forest": forestWithHub(t),
	} {
		pairs := pairsFor(g, xrand.New(2))
		var measures []Proximity
		for _, name := range []string{
			"deepwalk", "degree", "common-neighbors", "preferential-attachment",
			"adamic-adar", "resource-allocation", "katz", "pagerank",
		} {
			p, err := ByName(name, g)
			if err != nil {
				t.Fatal(err)
			}
			measures = append(measures, p)
		}
		measures = append(measures, Materialize(NewKatz(g, 0.05, 4)))
		for _, p := range measures {
			for _, workers := range []int{1, 2, 7, 100000} {
				w := PairWeights(p, pairs, workers)
				if len(w) != len(pairs) {
					t.Fatalf("%s/%s workers=%d: %d weights for %d pairs", gname, p.Name(), workers, len(w), len(pairs))
				}
				for k, pr := range pairs {
					if want := p.At(int(pr.I), int(pr.J)); w[k] != want {
						t.Fatalf("%s/%s workers=%d: weight[%d] of %v = %v, At = %v",
							gname, p.Name(), workers, k, pr, w[k], want)
					}
				}
			}
		}
	}
}

// countingKatz counts the row builds and At calls the fill makes.
type countingKatz struct {
	*Katz
	rows, ats atomic.Int64
}

func (c *countingKatz) Row(i int) []Entry {
	c.rows.Add(1)
	return c.Katz.Row(i)
}

func (c *countingKatz) At(i, j int) float64 {
	c.ats.Add(1)
	return c.Katz.At(i, j)
}

// TestPairWeightsBuildsEachRowOnce: the fill builds one row per distinct
// source, never one per pair, and never falls back to At.
func TestPairWeightsBuildsEachRowOnce(t *testing.T) {
	g := graph.BarabasiAlbert(200, 4, xrand.New(1))
	pairs := pairsFor(g, xrand.New(3))
	sources := map[int32]bool{}
	for _, pr := range pairs {
		sources[pr.I] = true
	}
	if len(pairs) < 4*len(sources) {
		t.Fatalf("%d pairs over %d sources: too few repeats to tell", len(pairs), len(sources))
	}
	for _, workers := range []int{1, 4} {
		c := &countingKatz{Katz: NewKatz(g, 0.05, 4)}
		PairWeights(c, pairs, workers)
		if got := c.rows.Load(); got != int64(len(sources)) {
			t.Errorf("workers=%d: %d row builds for %d distinct sources", workers, got, len(sources))
		}
		if got := c.ats.Load(); got != 0 {
			t.Errorf("workers=%d: %d At calls, want 0", workers, got)
		}
	}
}

// TestPairWeightsEmpty: no pairs, no work, no panic.
func TestPairWeightsEmpty(t *testing.T) {
	g := forestWithHub(t)
	for _, p := range []Proximity{NewKatz(g, 0.05, 3), NewDeepWalk(g)} {
		if w := PairWeights(p, nil, 4); len(w) != 0 {
			t.Errorf("%s: %d weights for no pairs", p.Name(), len(w))
		}
	}
}
