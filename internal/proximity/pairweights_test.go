package proximity

import (
	"fmt"
	"math"
	"sort"
	"sync"
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

// hubInTheMiddle is a hub at the middle index joined to every other
// node, over a ring with chords among the rest: in the two-hop fill the
// hub owns every pair it is in, so it is the pair's J whenever the pair
// is (u, hub), and the pair's common neighbors lie on both sides of it,
// where DeepWalk's adjacency ½ must land between them.
func hubInTheMiddle(t *testing.T) *graph.Graph {
	t.Helper()
	const n, hub = 41, 20
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, u := range []int{hub, (v + 1) % n, (v + 5) % n} {
			if u != v {
				if err := b.AddEdge(v, u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}

// TestPairWeightsMatchesAt pins the fill's contract: for every measure,
// at every worker count, weight k is At(pairs[k]) bit for bit (a −0/+0
// flip fails it) — the two-hop fill and the row-building paths of
// Katz/PageRank included.
func TestPairWeightsMatchesAt(t *testing.T) {
	for gname, g := range map[string]*graph.Graph{
		"ba":     graph.BarabasiAlbert(150, 3, xrand.New(9)),
		"forest": forestWithHub(t),
		"hub":    hubInTheMiddle(t),
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
					if want := p.At(int(pr.I), int(pr.J)); math.Float64bits(w[k]) != math.Float64bits(want) {
						t.Fatalf("%s/%s workers=%d: weight[%d] of %v = %v, At = %v",
							gname, p.Name(), workers, k, pr, w[k], want)
					}
				}
			}
		}
	}
}

// FuzzTwoHopPairWeights checks the two-hop fill of DeepWalk, common
// neighbors, Adamic–Adar and resource allocation against At bit for bit,
// on a graph of up to 48 nodes built from edge bytes, arbitrary pairs
// (self pairs and repeats included) and 1 to 4 workers.
func FuzzTwoHopPairWeights(f *testing.F) {
	f.Add(uint8(9), uint8(0), uint8(1), []byte{0, 1, 1, 2, 2, 0, 3, 4, 0, 3, 1, 3}, []byte{0, 1, 1, 0, 2, 2, 3, 0, 4, 3, 3, 1})
	f.Add(uint8(47), uint8(2), uint8(3), []byte("a graph with a few dozen edges among the nodes"), []byte("pairs from here"))
	f.Add(uint8(5), uint8(3), uint8(0), []byte{2, 0, 2, 1, 2, 3, 2, 4, 0, 1, 3, 4}, []byte{0, 2, 1, 2, 4, 2, 0, 4, 1, 3})
	// hubInTheMiddle under DeepWalk, every pair (u, hub).
	var hubEdges, hubPairs []byte
	for v := 0; v < 41; v++ {
		hubEdges = append(hubEdges, byte(v), 20, byte(v), byte((v+1)%41), byte(v), byte((v+5)%41))
		hubPairs = append(hubPairs, byte(v), 20)
	}
	f.Add(uint8(40), uint8(0), uint8(1), hubEdges, hubPairs)
	f.Fuzz(func(t *testing.T, nodes, measure, workers uint8, edges, pairBytes []byte) {
		n := 1 + int(nodes)%48
		b := graph.NewBuilder(n)
		for x := 0; x+1 < len(edges); x += 2 {
			if u, v := int(edges[x])%n, int(edges[x+1])%n; u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := b.Build()
		pairs := make([]Pair, 0, len(pairBytes)/2)
		for x := 0; x+1 < len(pairBytes); x += 2 {
			pairs = append(pairs, Pair{int32(int(pairBytes[x]) % n), int32(int(pairBytes[x+1]) % n)})
		}
		p := []Proximity{NewDeepWalk(g), NewCommonNeighbors(g), NewAdamicAdar(g), NewResourceAllocation(g)}[measure%4]
		if _, ok := twoHopOf(p); !ok {
			t.Fatalf("%s does not take the two-hop fill", p.Name())
		}
		w := 1 + int(workers)%4
		got := PairWeights(p, pairs, w)
		for x, pr := range pairs {
			if want := p.At(int(pr.I), int(pr.J)); math.Float64bits(got[x]) != math.Float64bits(want) {
				t.Fatalf("n=%d %s workers=%d: weight[%d] of %v = %v, At = %v", n, p.Name(), w, x, pr, got[x], want)
			}
		}
	})
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

// TestPairWeightsBuildsEachRowOnce: a wrapper measure (here one around
// Katz, which may override Row) gets one row build per distinct source,
// never one per pair, and never falls back to At. A *Katz with exact
// walk counts serves each non-self pair from exactly one of its
// endpoints, and builds one row per node of that cover: no more rows
// than distinct sources, the same number at any worker count.
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

	for name, pairs := range map[string][]Pair{"pairsFor": pairs, "edges": edgePairs(g)} {
		sources := map[int32]bool{}
		for _, pr := range pairs {
			if pr.I != pr.J {
				sources[pr.I] = true
			}
		}
		cover, start, owned := coverPairs(pairs, g.NumNodes())
		servedBy := make([]int, len(pairs))
		for _, i := range cover {
			for _, x := range owned[start[i]:start[i+1]] {
				if pairs[x].I != i && pairs[x].J != i {
					t.Fatalf("%s: pair %d %v served by %d, not an endpoint", name, x, pairs[x], i)
				}
				servedBy[x]++
			}
		}
		for x, pr := range pairs {
			want := 1
			if pr.I == pr.J {
				want = 0
			}
			if servedBy[x] != want {
				t.Fatalf("%s: pair %d %v served %d times, want %d", name, x, pr, servedBy[x], want)
			}
		}
		if len(cover) > len(sources) {
			t.Errorf("%s: cover of %d nodes for %d distinct sources", name, len(cover), len(sources))
		}
		k := NewKatz(g, 0.05, 4)
		if !k.countsExact() {
			t.Fatal("walk counts past 2^53: the test needs the cover fill")
		}
		for _, workers := range []int{1, 4} {
			if built := k.fill(pairs, make([]float64, len(pairs)), workers); built != len(cover) {
				t.Errorf("%s workers=%d: %d row builds for a cover of %d", name, workers, built, len(cover))
			}
		}
		t.Logf("%s: cover %d nodes, %d distinct sources", name, len(cover), len(sources))
	}
}

// TestKatzFillMatchesMaterialize pins Katz's own fill (the vertex cover,
// pushed and pulled levels) to the materialized rows bit for bit, on
// graphs with hubs, isolated nodes and several components, at even and
// odd L, at every worker count, and over two passes — every fill reuses
// one Katz's pooled scratch, so an array left dirty by one build would
// show up in a later one; and two fills run at once on a fresh measure.
// Then the bound's edge: on the complete graph K_257 a node starts 256^l
// walks of length l, so L = 6 (2^48) is inside the exact-count bound and
// takes the cover fill, while L = 7 (2^56) is past it and takes the
// per-source rows; both match too.
func TestKatzFillMatchesMaterialize(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":     graph.BarabasiAlbert(300, 3, xrand.New(4)),
		"forest": forestWithHub(t),
		"er":     graph.ErdosRenyi(200, 300, xrand.New(6)),
	}
	for gname, g := range graphs {
		pairs := pairsFor(g, xrand.New(8))
		for _, maxLen := range []int{1, 2, 3, 6, 7} {
			for _, beta := range []float64{0.05, 0.2} {
				k := NewKatz(g, beta, maxLen)
				if !k.countsExact() {
					t.Fatalf("%s L=%d: walk counts past 2^53; the test needs the cover fill", gname, maxLen)
				}
				want := Materialize(k)
				for pass := 0; pass < 2; pass++ {
					for _, workers := range []int{1, 2, 7, 100000} {
						sameWeights(t, fmt.Sprintf("%s L=%d β=%g pass %d workers=%d", gname, maxLen, beta, pass, workers),
							PairWeights(k, pairs, workers), want, pairs)
					}
				}
			}
		}
	}

	// Two fills at once on a fresh measure share its first countsExact
	// call and its scratch pool.
	k := NewKatz(graphs["ba"], 0.05, 6)
	pairs := pairsFor(graphs["ba"], xrand.New(8))
	var wg sync.WaitGroup
	got := make([][]float64, 2)
	for x := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[x] = PairWeights(k, pairs, 2)
		}()
	}
	wg.Wait()
	for x := range got {
		sameWeights(t, fmt.Sprintf("concurrent fill %d", x), got[x], Materialize(k), pairs)
	}

	const n = 257
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	pairs = pairsFor(g, xrand.New(5))
	for _, c := range []struct {
		maxLen int
		exact  bool
	}{{6, true}, {7, false}} {
		k := NewKatz(g, 0.05, c.maxLen)
		if k.countsExact() != c.exact {
			t.Fatalf("L=%d: countsExact = %v, want %v", c.maxLen, !c.exact, c.exact)
		}
		sameWeights(t, fmt.Sprintf("K_%d L=%d", n, c.maxLen), PairWeights(k, pairs, 3), Materialize(k), pairs)
	}
}

func sameWeights(t *testing.T, what string, got []float64, want *Sparse, pairs []Pair) {
	t.Helper()
	for x, pr := range pairs {
		if w := want.At(int(pr.I), int(pr.J)); got[x] != w {
			t.Fatalf("%s: weight[%d] of %v = %v, materialized %v", what, x, pr, got[x], w)
		}
	}
}

// FuzzKatzPairWeights checks the Katz fill against the materialized rows
// on a graph of up to 48 nodes built from edge bytes, arbitrary pairs
// (self pairs and repeats included), L from 1 to 8 and 1 to 4 workers.
func FuzzKatzPairWeights(f *testing.F) {
	f.Add(uint8(9), uint8(5), uint8(1), 0.05, []byte{0, 1, 1, 2, 2, 0, 3, 4}, []byte{0, 1, 1, 0, 2, 2, 3, 0, 4, 3})
	f.Add(uint8(47), uint8(7), uint8(3), 0.2, []byte("a graph with a few dozen edges among the nodes"), []byte("pairs from here"))
	f.Add(uint8(2), uint8(2), uint8(0), 1e300, []byte{0, 1, 1, 2}, []byte{0, 2, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nodes, maxLen, workers uint8, beta float64, edges, pairBytes []byte) {
		if !(beta > 0) {
			return
		}
		n := 1 + int(nodes)%48
		b := graph.NewBuilder(n)
		for x := 0; x+1 < len(edges); x += 2 {
			if u, v := int(edges[x])%n, int(edges[x+1])%n; u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := b.Build()
		pairs := make([]Pair, 0, len(pairBytes)/2)
		for x := 0; x+1 < len(pairBytes); x += 2 {
			pairs = append(pairs, Pair{int32(int(pairBytes[x]) % n), int32(int(pairBytes[x+1]) % n)})
		}
		k := NewKatz(g, beta, 1+int(maxLen)%8)
		w := 1 + int(workers)%4
		sameWeights(t, fmt.Sprintf("n=%d L=%d β=%g workers=%d", n, k.l, beta, w),
			PairWeights(k, pairs, w), Materialize(k), pairs)
	})
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
