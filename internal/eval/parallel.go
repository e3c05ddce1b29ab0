package eval

import (
	"math"
	"slices"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/panicx"
)

// This file shards the two evaluation hot paths — StrucEqu's O(|V|²) pair
// scan and LinkAUC's link scoring — across a worker pool. Both follow the
// index-addressed pattern of the determinism contract (DESIGN.md §6
// pattern 1: consume no randomness, write to disjoint pre-indexed slots):
// every (i, j) pair owns a fixed position in the distance arrays and every
// test link owns a fixed position in the score arrays, so workers never
// contend and the assembled arrays are byte-identical to the serial scan
// at any worker count. The final reduction (Pearson, rank-based AUC) then
// runs single-threaded over arrays whose element order never changed.

// pairBase returns the index of pair (i, i+1) in the flattened upper
// triangle enumerated row-major: (0,1), (0,2), …, (0,n−1), (1,2), …
func pairBase(i, n int) int {
	return i*(n-1) - i*(i-1)/2
}

// rowBlock is the pools' work-grant size in rows (panicx.Blocks): small,
// because StrucEqu's row costs are triangular (row 0 has n−1 pairs, row
// n−2 has one); rows write to disjoint index-addressed slots, so the
// schedule is invisible in the result.
const rowBlock = 16

// commonNeighborsAbove adds |N(i) ∩ N(j)| to count[j] for every j > i by
// a two-hop walk i → u → j, and leaves count[j] for j ≤ i untouched. One
// row costs Σ_{u ∈ N(i)} deg(u) instead of a sorted-list merge per pair.
func commonNeighborsAbove(g *graph.Graph, i int, count []int32) {
	for _, u := range g.Neighbors(i) {
		nb := g.Neighbors(int(u))
		k, _ := slices.BinarySearch(nb, int32(i+1))
		for _, j := range nb[k:] {
			count[j]++
		}
	}
}

// StrucEquWorkers is StrucEqu with the pair scan sharded across `workers`
// goroutines. Each node row i fills its fixed slice of the distance
// arrays (pairs (i, i+1)…(i, n−1) at pairBase(i)), so the result is
// bit-identical to the serial scan at every worker count. workers <= 1
// selects the serial path.
func StrucEquWorkers(g *graph.Graph, emb *mathx.Matrix, workers int) float64 {
	n := g.NumNodes()
	checkEmbedding(g, emb)
	total := n * (n - 1) / 2
	adjD := make([]float64, total)
	embD := make([]float64, total)
	counts := make([][]int32, max(workers, 1)) // per worker, zero between rows
	panicx.Blocks(n-1, workers, rowBlock, func(w, lo, hi int) {
		if counts[w] == nil {
			counts[w] = make([]int32, n)
		}
		cn := counts[w]
		for i := lo; i < hi; i++ {
			commonNeighborsAbove(g, i, cn)
			di := float64(g.Degree(i))
			base := pairBase(i, n)
			for j := i + 1; j < n; j++ {
				sq := di + float64(g.Degree(j)) - 2*float64(cn[j])
				cn[j] = 0 // the walk touched only slots above i
				if sq < 0 {
					sq = 0 // guard floating rounding; exact arithmetic is integral
				}
				at := base + (j - i - 1)
				adjD[at] = math.Sqrt(sq)
				embD[at] = mathx.EuclideanDistance(emb.Row(i), emb.Row(j))
			}
		}
	})
	return mathx.Pearson(adjD, embD)
}

// LinkAUCWorkers is LinkAUC with the scoring pass sharded across `workers`
// goroutines: each test link's score lands at its index, then the
// rank-based AUC reduction runs serially over arrays whose order is
// independent of the schedule — bit-identical at every worker count.
//
// The scorer is called concurrently and must be safe for that; every
// scorer in this repository is a read-only function of an immutable
// embedding or graph, which qualifies.
func LinkAUCWorkers(split *LinkSplit, score Scorer, workers int) float64 {
	pos := make([]float64, len(split.TestPos))
	neg := make([]float64, len(split.TestNeg))
	scoreAll := func(links []graph.Edge, out []float64) {
		panicx.Blocks(len(links), workers, rowBlock, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = score(int(links[i].U), int(links[i].V))
			}
		})
	}
	scoreAll(split.TestPos, pos)
	scoreAll(split.TestNeg, neg)
	return AUC(pos, neg)
}
