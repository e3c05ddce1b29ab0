package proximity

import (
	"slices"
	"sync/atomic"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/panicx"
)

// This file is Katz's own structure-preference fill (DESIGN §9). While
// every walk count is an exact float64 integer, (A^l)_ij = (A^l)_ji and
// build(i)[j] adds the same β^l·(A^l)_ij terms in the same level order as
// build(j)[i], so p_ij = p_ji bit for bit. The fill then serves each pair
// from one endpoint of a vertex cover of the pairs, and reads only the
// columns it serves instead of whole rows.

// exactCounts is 2^53: every integer below it, and so every walk count
// below it and each partial sum of one, is an exact float64.
const exactCounts = 1 << 53

// countsExact reports whether every walk count of length ≤ L stays below
// 2^53 — max over v and l ≤ L of (A^l·1)_v, the number of walks of length
// l leaving v, which bounds every (A^l)_vj and every product and partial
// sum the fill forms. It runs one O(L·|E|) pass, once per measure.
// Rounding is monotone, so a float sum that truly reaches 2^53 never
// reads below it, and the first level past the bound ends the pass.
func (k *Katz) countsExact() bool {
	k.exactOnce.Do(func() { k.exact = walkCountsBelow(k.g, k.l, exactCounts) })
	return k.exact
}

func walkCountsBelow(g *graph.Graph, maxLen int, bound float64) bool {
	n := g.NumNodes()
	cur, next := make([]float64, n), make([]float64, n)
	for v := range cur {
		cur[v] = 1
	}
	for l := 1; l <= maxLen; l++ {
		for v := range next {
			var c float64
			for _, u := range g.Neighbors(v) {
				c += cur[u]
			}
			if c >= bound {
				return false
			}
			next[v] = c
		}
		cur, next = next, cur
	}
	return true
}

// fill writes the weight of every pair into w, bit-equal to At, and
// returns the number of rows it ran, one per cover node. countsExact must
// hold. Self pairs keep their zero weight.
func (k *Katz) fill(pairs []Pair, w []float64, workers int) int {
	cover, start, owned := coverPairs(pairs, k.g.NumNodes())
	var built atomic.Int64
	panicx.Blocks(len(cover), workers, 1, func(_, lo, hi int) {
		s := k.scratch.get()
		defer k.scratch.put(s)
		for _, i := range cover[lo:hi] {
			ks := owned[start[i]:start[i+1]]
			targets := s.ball[:0]
			for _, x := range ks {
				j := pairs[x].I ^ pairs[x].J ^ i // the endpoint that is not i
				if !s.seen[j] {
					s.seen[j] = true
					targets = append(targets, j)
				}
			}
			acc := k.pushPull(s, int(i), targets)
			for _, x := range ks {
				j := pairs[x].I ^ pairs[x].J ^ i
				w[x] = entry(acc, int(i), int(j))
			}
			for _, j := range s.ball[:len(targets)] {
				acc[j] = 0
			}
			for _, v := range s.ball {
				s.seen[v] = false
			}
		}
		built.Add(int64(hi - lo))
	})
	return int(built.Load())
}

// coverPairs picks which endpoint serves each non-self pair. It takes the
// nodes in descending pair degree (the number of non-self pairs they are
// in), ties by node index; each pair goes to whichever endpoint comes
// first, so the owners form a greedy vertex cover of the pairs. The
// sources are a cover too, so where the greedy one is larger the sources
// serve their own pairs instead. It returns the cover in that order, and
// owned[start[i]:start[i+1]] lists node i's pair indices in pair order.
func coverPairs(pairs []Pair, n int) (cover []int32, start []int, owned []int) {
	deg := make([]int32, n)
	source := make([]bool, n)
	sources := 0
	for _, pr := range pairs {
		if pr.I != pr.J {
			deg[pr.I]++
			deg[pr.J]++
			if !source[pr.I] {
				source[pr.I] = true
				sources++
			}
		}
	}
	order := make([]int32, 0, n)
	for v, d := range deg {
		if d > 0 {
			order = append(order, int32(v))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if deg[a] != deg[b] {
			return int(deg[b] - deg[a])
		}
		return int(a - b)
	})
	rank := deg // deg is spent: reuse it as each node's place in order
	for r, v := range order {
		rank[v] = int32(r)
	}
	start, owned = groupPairs(pairs, n, func(pr Pair) int32 {
		switch {
		case pr.I == pr.J:
			return -1
		case rank[pr.J] < rank[pr.I]:
			return pr.J
		}
		return pr.I
	})
	greedy := 0
	for v := 0; v < n; v++ {
		if start[v+1] > start[v] {
			greedy++
		}
	}
	if greedy > sources {
		start, owned = groupPairs(pairs, n, func(pr Pair) int32 {
			if pr.I == pr.J {
				return -1
			}
			return pr.I
		})
	}
	cover = order[:0]
	for _, v := range order {
		if start[v+1] > start[v] {
			cover = append(cover, v)
		}
	}
	return cover, start, owned
}

// pushPull runs row i's walk counts as build does, but adds them up only
// on targets, which must be distinct, exclude i, be marked seen and
// alias the front of s.ball; it returns the dense values, nonzero on
// targets only. Levels 1..⌈L/2⌉ are pushed from i over the whole
// frontier, exactly as build pushes them. The remaining levels are
// pulled: level l's count is formed only on the nodes within L−l hops of
// a target, each summing its neighbors' level l−1 counts, so level L is
// formed on the targets alone. Each target adds β^l times its count at
// every level where the count is positive, in level order, which are
// build's additions; with exact counts the pulled sums equal the pushed
// ones, so the values are build's bit for bit. The caller zeroes the
// values on the targets and clears seen on s.ball.
func (k *Katz) pushPull(s *rowScratch, i int, targets []int32) []float64 {
	cur, next, acc := s.x, s.y, s.z
	scale := 1.0
	add := func(counts []float64) {
		scale *= k.beta
		for _, j := range targets {
			if c := counts[j]; c != 0 {
				acc[j] += scale * c
			}
		}
	}
	pushed := (k.l + 1) / 2
	cur[i] = 1
	frontier, nextFrontier := append(s.l0[:0], int32(i)), s.l1[:0]
	for l := 1; l <= pushed; l++ {
		nextFrontier = nextFrontier[:0]
		for _, u := range frontier {
			c := cur[u]
			cur[u] = 0
			for _, v := range k.g.Neighbors(int(u)) {
				if next[v] == 0 {
					nextFrontier = append(nextFrontier, v)
				}
				next[v] += c
			}
		}
		add(next)
		cur, next = next, cur
		frontier, nextFrontier = nextFrontier, frontier
	}
	// ball[:ends[d]] holds every node within d hops of a target, nearest
	// first; the pulls need d < L−pushed.
	ball, ends := targets, append(s.ends[:0], len(targets))
	for lo, d := 0, 1; d < k.l-pushed; d++ {
		hi := len(ball)
		for _, u := range ball[lo:hi] {
			for _, v := range k.g.Neighbors(int(u)) {
				if !s.seen[v] {
					s.seen[v] = true
					ball = append(ball, v)
				}
			}
		}
		lo = hi
		ends = append(ends, len(ball))
	}
	// cur holds the level-pushed counts on the frontier; next is zero. A
	// pull writes level l on ball[:ends[L−l]] from the previous level,
	// which the pull before it wrote on the wider ball[:ends[L−l+1]].
	for l := pushed + 1; l <= k.l; l++ {
		for _, v := range ball[:ends[k.l-l]] {
			var c float64
			for _, u := range k.g.Neighbors(int(v)) {
				c += cur[u]
			}
			next[v] = c
		}
		add(next)
		cur, next = next, cur
	}
	for _, u := range frontier {
		cur[u], next[u] = 0, 0
	}
	for _, v := range ball {
		cur[v], next[v] = 0, 0
	}
	s.l0, s.l1, s.ball, s.ends = frontier, nextFrontier, ball, ends
	return acc
}
