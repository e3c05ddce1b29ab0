package proximity

import (
	"seprivgemb/internal/graph"
	"seprivgemb/internal/panicx"
)

// This file is the two-hop measures' structure-preference fill (DESIGN
// §9). DeepWalk, common neighbors, Adamic–Adar and resource allocation
// each give p_ij as a sum, over the common neighbors w of i and j in
// ascending order, of a term of w alone (graph.SumCommon); DeepWalk adds
// its adjacency ½ in j's place in that order. The fill hands each pair to
// one endpoint, which marks its neighbors once for all of its pairs; each
// pair then scans the other endpoint's sorted list and adds the term of
// every marked w. Those are the common neighbors, in At's order, so every
// weight is At's bit for bit.

// twoHop is a two-hop measure's graph, its per-node term, and the
// adjacency addend it puts in j's place (DeepWalk's ½, else 0).
type twoHop struct {
	g         *graph.Graph
	term      func(w int32) float64
	adjacency float64
}

// twoHopOf returns p's two-hop form when p is one of the four measures
// itself. A type that embeds one may override At, and its At stays the
// source of truth, so it gets At per pair (as denseBuild rules for
// Katz and PageRank).
func twoHopOf(p Proximity) (twoHop, bool) {
	switch q := p.(type) {
	case *DeepWalk:
		return twoHop{q.g, q.term, 0.5}, true
	case *CommonNeighbors:
		return twoHop{q.g, q.term, 0}, true
	case *AdamicAdar:
		return twoHop{q.g, q.term, 0}, true
	case *ResourceAllocation:
		return twoHop{q.g, q.term, 0}, true
	}
	return twoHop{}, false
}

// fill writes the weight of every pair into w, bit-equal to At. Each
// non-self pair goes to its endpoint of higher degree, ties to the lower
// index, so a pair's scan is of the shorter list; self pairs keep their
// zero weight. The owners run in blocks on panicx.Blocks, each worker
// with its own mark array, and each weight lands in its pair's slot.
func (t twoHop) fill(pairs []Pair, w []float64, workers int) {
	g, n := t.g, t.g.NumNodes()
	terms := make([]float64, n)
	for v := range terms {
		terms[v] = t.term(int32(v))
	}
	start, owned := groupPairs(pairs, n, func(pr Pair) int32 {
		di, dj := g.Degree(int(pr.I)), g.Degree(int(pr.J))
		switch {
		case pr.I == pr.J:
			return -1
		case dj > di || dj == di && pr.J < pr.I:
			return pr.J
		}
		return pr.I
	})
	marks := make([][]bool, max(workers, 1))
	panicx.Blocks(n, workers, block, func(wk, lo, hi int) {
		if marks[wk] == nil {
			marks[wk] = make([]bool, n)
		}
		mark := marks[wk]
		for o := lo; o < hi; o++ {
			ks := owned[start[o]:start[o+1]]
			if len(ks) == 0 {
				continue
			}
			nb := g.Neighbors(o)
			for _, v := range nb {
				mark[v] = true
			}
			for _, x := range ks {
				j := pairs[x].J
				other := pairs[x].I ^ j ^ int32(o) // the endpoint that is not o
				pending := t.adjacency != 0 && mark[other]
				var s float64
				for _, v := range g.Neighbors(int(other)) {
					if !mark[v] {
						continue
					}
					if pending && v > j {
						s += t.adjacency
						pending = false
					}
					s += terms[v]
				}
				if pending {
					s += t.adjacency
				}
				w[x] = s
			}
			for _, v := range nb {
				mark[v] = false
			}
		}
	})
}
