package proximity

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"seprivgemb/internal/graph"
)

// This file implements the high-order measures of Definition 4: Katz,
// (personalized) PageRank, and the DeepWalk random-walk proximity the paper
// uses for SE-PrivGEmb_DW.

// Katz is the truncated Katz index p_ij = Σ_{l=1..L} β^l (A^l)_ij, counting
// walks of every length with geometric damping. β must satisfy β < 1/λ_max
// for the untruncated series to converge; the truncated form is always
// finite but the same guidance keeps weights well-scaled.
//
// Row and At build row i by frontier expansion (build). PairWeights
// builds no whole rows while every walk count of length ≤ L is below
// 2^53: p_ij = p_ji bit for bit there, so each pair is served by one
// endpoint of a vertex cover of the pairs, which reads only the columns
// it serves (fill, in katzfill.go).
type Katz struct {
	g       *graph.Graph
	beta    float64
	l       int
	scratch rowPool

	exactOnce sync.Once // countsExact
	exact     bool
}

// NewKatz returns the Katz proximity with damping beta truncated at walk
// length maxLen. It panics for a beta that is not positive and finite,
// and for a maxLen below 1.
func NewKatz(g *graph.Graph, beta float64, maxLen int) *Katz {
	if !(beta > 0) || math.IsInf(beta, 1) || maxLen < 1 {
		panic(fmt.Sprintf("proximity: NewKatz(beta=%g, maxLen=%d) invalid", beta, maxLen))
	}
	return &Katz{g: g, beta: beta, l: maxLen, scratch: rowPool{n: g.NumNodes()}}
}

// Name implements Proximity.
func (*Katz) Name() string { return "katz" }

// NumNodes implements Proximity.
func (k *Katz) NumNodes() int { return k.g.NumNodes() }

func (*Katz) buildsRows() {}

// Row implements Proximity: the sparse form of build's row.
func (k *Katz) Row(i int) []Entry {
	s := k.scratch.get()
	defer k.scratch.put(s)
	return s.collect(k.build(s, i), i)
}

// build runs row i in s and returns its dense values: acc[j] for every
// node j it reached (s.reached), zero elsewhere; the caller resets s
// (collect or reset). Cost is O(L·|E_reach|) via repeated sparse frontier
// expansion from node i: cur holds the walk counts A^l e_i on the
// frontier, and each level adds β^l times the next counts into acc.
// Frontiers are expanded in the deterministic order they were reached, so
// the walk-count sums (exact integers below 2^53, and reproducible above)
// never depend on scheduling.
func (k *Katz) build(s *rowScratch, i int) []float64 {
	cur, next, acc := s.x, s.y, s.z
	cur[i] = 1
	frontier, nextFrontier := append(s.l0[:0], int32(i)), s.l1[:0]
	reached := s.reached[:0]
	scale := 1.0
	for l := 1; l <= k.l && len(frontier) > 0; l++ {
		nextFrontier = nextFrontier[:0]
		for _, u := range frontier {
			c := cur[u]
			cur[u] = 0
			for _, v := range k.g.Neighbors(int(u)) {
				if next[v] == 0 { // counts are >= 1 once reached
					nextFrontier = append(nextFrontier, v)
				}
				next[v] += c
			}
		}
		scale *= k.beta
		for _, j := range nextFrontier {
			if !s.seen[j] {
				s.seen[j] = true
				reached = append(reached, j)
			}
			acc[j] += scale * next[j]
		}
		cur, next = next, cur
		frontier, nextFrontier = nextFrontier, frontier
	}
	for _, u := range frontier {
		cur[u] = 0
	}
	s.l0, s.l1 = frontier, nextFrontier
	s.reached = reached
	return acc
}

// At implements Proximity.
func (k *Katz) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return rowAt(k.Row(i), j)
}

// PageRank is personalized PageRank: p_ij = π_i(j), the stationary
// probability of a random walk from i that restarts with probability
// 1−alpha. Rows are computed with the Andersen–Chung–Lang forward-push
// approximation to tolerance eps (residual per unit degree).
type PageRank struct {
	g       *graph.Graph
	alpha   float64
	eps     float64
	scratch rowPool
}

// NewPageRank returns the PPR proximity with continuation probability alpha
// (typically 0.85) and push tolerance eps. It panics for an alpha outside
// (0, 1) and an eps that is not positive and finite.
func NewPageRank(g *graph.Graph, alpha, eps float64) *PageRank {
	if !(alpha > 0 && alpha < 1) || !(eps > 0) || math.IsInf(eps, 1) {
		panic(fmt.Sprintf("proximity: NewPageRank(alpha=%g, eps=%g) invalid", alpha, eps))
	}
	return &PageRank{g: g, alpha: alpha, eps: eps, scratch: rowPool{n: g.NumNodes()}}
}

// Name implements Proximity.
func (*PageRank) Name() string { return "pagerank" }

// NumNodes implements Proximity.
func (p *PageRank) NumNodes() int { return p.g.NumNodes() }

func (*PageRank) buildsRows() {}

// Row implements Proximity: the sparse form of build's row.
func (p *PageRank) Row(i int) []Entry {
	s := p.scratch.get()
	defer p.scratch.put(s)
	return s.collect(p.build(s, i), i)
}

// build runs row i in s and returns its dense values, as Katz.build does,
// via forward push from i: a FIFO queue of nodes whose residual reached
// eps per unit degree, each pop settling 1−alpha of its residual into est
// and spreading the rest over its neighbors.
func (p *PageRank) build(s *rowScratch, i int) []float64 {
	est, residual, queued := s.x, s.y, s.queued
	reached := append(s.reached[:0], int32(i))
	s.seen[i] = true
	residual[i] = 1
	queue := append(s.l0[:0], int32(i))
	queued[i] = true
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		queued[u] = false
		r := residual[u]
		d := p.g.Degree(int(u))
		if d == 0 {
			// Dangling node: all residual mass settles here.
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
			if !s.seen[v] {
				s.seen[v] = true
				reached = append(reached, v)
			}
			residual[v] += share
			if !queued[v] && residual[v] >= p.eps*float64(p.g.Degree(int(v))) {
				queued[v] = true
				queue = append(queue, v)
			}
		}
	}
	for _, u := range reached {
		residual[u] = 0
	}
	s.l0, s.reached = queue, reached
	return est
}

// At implements Proximity.
func (p *PageRank) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return rowAt(p.Row(i), j)
}

// rowScratch is the node-indexed workspace of one Katz or PageRank row
// build. Between builds every value is zero and every flag false; a build
// records the nodes it touches in reached and resets only those, so its
// cost follows the region it explores, not |V|.
type rowScratch struct {
	x, y, z      []float64
	seen, queued []bool
	l0, l1       []int32
	reached      []int32
	ball         []int32 // Katz.pushPull's targets and the nodes near them
	ends         []int
}

// collect returns the positive entries of a built row's dense values
// over the reached nodes, except the diagonal column i, in ascending
// column order, and resets the scratch.
func (s *rowScratch) collect(vals []float64, i int) []Entry {
	slices.Sort(s.reached)
	row := make([]Entry, 0, len(s.reached))
	for _, j := range s.reached {
		if v := entry(vals, i, int(j)); v != 0 {
			row = append(row, Entry{J: j, P: v})
		}
	}
	s.reset(vals)
	return row
}

// entry returns column j of row i's dense values as the sparse Row holds
// it: 0 on the diagonal and for any value not > 0.
func entry(vals []float64, i, j int) float64 {
	if v := vals[j]; v > 0 && j != i {
		return v
	}
	return 0
}

// reset zeroes vals and seen on the reached nodes, readying s for the
// next build without sorting or collecting the row.
func (s *rowScratch) reset(vals []float64) {
	for _, j := range s.reached {
		vals[j] = 0
		s.seen[j] = false
	}
}

// rowPool recycles rowScratch workspaces sized for an n-node graph, so
// concurrent row builds (PairWeights' workers) each hold one without
// allocating O(|V|) per row.
type rowPool struct {
	n    int
	pool sync.Pool
}

func (rp *rowPool) get() *rowScratch {
	if s, ok := rp.pool.Get().(*rowScratch); ok {
		return s
	}
	n := rp.n
	return &rowScratch{
		x: make([]float64, n), y: make([]float64, n), z: make([]float64, n),
		seen: make([]bool, n), queued: make([]bool, n),
	}
}

func (rp *rowPool) put(s *rowScratch) { rp.pool.Put(s) }

// DeepWalk is the random-walk proximity of Yang et al. [22], the measure
// behind SE-PrivGEmb_DW: the stationary window-2 co-occurrence frequency of
// a uniform random walk. A stationary walk occupies node i with probability
// ∝ d_i and reaches j within two steps with probability (Â + Â²)_ij/2, so
// the pair co-occurrence is the symmetric
//
//	p_ij ∝ d_i·(Â + Â²)_ij / 2 = ( A_ij + Σ_{w ∈ N(i)∩N(j)} 1/d_w ) / 2,
//
// i.e. direct adjacency plus a resource-allocation term for shared
// neighbors. Computing all rows is O(|V|²) worst case, matching the
// paper's complexity analysis; single entries are O(d_i + d_j).
type DeepWalk struct {
	g   *graph.Graph
	deg []int
}

// NewDeepWalk returns the DeepWalk proximity over g.
func NewDeepWalk(g *graph.Graph) *DeepWalk {
	return &DeepWalk{g: g, deg: g.Degrees()}
}

// Name implements Proximity.
func (*DeepWalk) Name() string { return "deepwalk" }

// NumNodes implements Proximity.
func (d *DeepWalk) NumNodes() int { return d.g.NumNodes() }

// Row implements Proximity.
func (d *DeepWalk) Row(i int) []Entry {
	acc := make(map[int32]float64, 2*d.deg[i])
	for _, w := range d.g.Neighbors(i) {
		acc[w] += 0.5 // adjacency term
		dw := d.deg[w]
		if dw == 0 {
			continue
		}
		step := 0.5 / float64(dw)
		for _, j := range d.g.Neighbors(int(w)) {
			acc[j] += step // two-step term (self mass dropped below)
		}
	}
	delete(acc, int32(i))
	row := make([]Entry, 0, len(acc))
	for j, p := range acc {
		row = append(row, Entry{J: j, P: p})
	}
	return sortRow(row)
}

// At implements Proximity in O(d_i + d_j) by merging the two adjacency
// lists for the common-neighbor sum.
//
// The addends accumulate in exactly Row's order — ascending w over N(i),
// with the adjacency ½ landing at w == j's position, not hoisted to the
// front. Floating-point addition is not associative, so any other order
// drifts from the materialized row by ULPs, and the serving layer's
// dedup contract ("one measure name, one numeric function") requires
// At(i, j) == Materialize(p).At(i, j) bit for bit.
func (d *DeepWalk) At(i, j int) float64 {
	if i == j {
		return 0
	}
	var adjacency float64
	if d.g.HasEdge(i, j) {
		adjacency = 0.5
	}
	return graph.SumCommon(d.g.Neighbors(i), d.g.Neighbors(j), d.term, adjacency, int32(j))
}

// term is common neighbor w's two-step addend, ½·1/d_w.
func (d *DeepWalk) term(w int32) float64 {
	if dw := d.deg[w]; dw > 0 {
		return 0.5 / float64(dw)
	}
	return 0
}

// ByName constructs a registered measure by its canonical name, covering
// every measure class of Definition 4. Katz and PageRank use standard
// defaults (β=0.05, L=6; α=0.85, ε=1e-5).
func ByName(name string, g *graph.Graph) (Proximity, error) {
	switch name {
	case "deepwalk", "dw":
		return NewDeepWalk(g), nil
	case "degree", "deg":
		return NewDegree(g), nil
	case "common-neighbors", "cn":
		return NewCommonNeighbors(g), nil
	case "preferential-attachment", "pa":
		return NewPreferentialAttachment(g), nil
	case "adamic-adar", "aa":
		return NewAdamicAdar(g), nil
	case "resource-allocation", "ra":
		return NewResourceAllocation(g), nil
	case "katz":
		return NewKatz(g, 0.05, 6), nil
	case "pagerank", "ppr":
		return NewPageRank(g, 0.85, 1e-5), nil
	default:
		return nil, fmt.Errorf("proximity: unknown measure %q", name)
	}
}
