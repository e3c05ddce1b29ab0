package proximity

import (
	"seprivgemb/internal/graph"
)

// This file implements the first-order measures of Definition 4: proximities
// that depend only on the one-hop neighborhoods of the endpoints.

// CommonNeighbors is p_ij = |N(i) ∩ N(j)|.
type CommonNeighbors struct {
	g *graph.Graph
}

// NewCommonNeighbors returns the common-neighbors proximity over g.
func NewCommonNeighbors(g *graph.Graph) *CommonNeighbors {
	return &CommonNeighbors{g: g}
}

// Name implements Proximity.
func (*CommonNeighbors) Name() string { return "common-neighbors" }

// NumNodes implements Proximity.
func (c *CommonNeighbors) NumNodes() int { return c.g.NumNodes() }

// At implements Proximity.
func (c *CommonNeighbors) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return float64(c.g.CommonNeighbors(i, j))
}

// Row implements Proximity. The support of row i is the set of nodes within
// two hops of i, enumerated by counting walks i → w → j.
func (c *CommonNeighbors) Row(i int) []Entry {
	return twoHopRow(c.g, i, c.term)
}

// term is each common neighbor's addend: one.
func (*CommonNeighbors) term(int32) float64 { return 1 }

// twoHopRow accumulates Σ_{w ∈ N(i) ∩ N(j)} term(w) over all j ≠ i,
// which covers CN (term 1), Adamic–Adar (1/log d_w) and Resource
// Allocation (1/d_w).
func twoHopRow(g *graph.Graph, i int, term func(w int32) float64) []Entry {
	acc := make(map[int32]float64)
	for _, w := range g.Neighbors(i) {
		wt := term(w)
		for _, j := range g.Neighbors(int(w)) {
			if int(j) != i {
				acc[j] += wt
			}
		}
	}
	row := make([]Entry, 0, len(acc))
	for j, p := range acc {
		row = append(row, Entry{J: j, P: p})
	}
	return sortRow(row)
}

// PreferentialAttachment is p_ij = d_i·d_j / d_max², the Barabási–Albert
// attachment score normalized into (0, 1] so that loss weights stay on a
// learning-friendly scale. Normalization by a constant only shifts the
// Theorem 3 optimum by a constant, so structure preference is unaffected.
type PreferentialAttachment struct {
	g    *graph.Graph
	deg  []int
	norm float64 // d_max², or 1 for an edgeless graph
}

// NewPreferentialAttachment returns the preferential-attachment proximity.
func NewPreferentialAttachment(g *graph.Graph) *PreferentialAttachment {
	p := &PreferentialAttachment{g: g, deg: g.Degrees(), norm: 1}
	if d := g.MaxDegree(); d > 0 {
		p.norm = float64(d) * float64(d)
	}
	return p
}

// Name implements Proximity.
func (*PreferentialAttachment) Name() string { return "preferential-attachment" }

// NumNodes implements Proximity.
func (p *PreferentialAttachment) NumNodes() int { return p.g.NumNodes() }

// At implements Proximity.
func (p *PreferentialAttachment) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return float64(p.deg[i]) * float64(p.deg[j]) / p.norm
}

// Row implements Proximity. PA rows are dense over nodes with positive
// degree; avoid calling this on huge graphs (Stats is analytic instead).
func (p *PreferentialAttachment) Row(i int) []Entry {
	if p.deg[i] == 0 {
		return nil
	}
	row := make([]Entry, 0, p.g.NumNodes()-1)
	for j := 0; j < p.g.NumNodes(); j++ {
		if j != i && p.deg[j] > 0 {
			row = append(row, Entry{J: int32(j), P: p.At(i, j)})
		}
	}
	return row
}

// Degree is the paper's "node degree proximity" (SE-PrivGEmb_Deg): it scores
// a pair by the normalized product of endpoint degrees, identical in form to
// preferential attachment. It is listed separately because the paper
// benchmarks it as its own preference setting with O(|V|) setup cost.
type Degree struct {
	PreferentialAttachment
}

// NewDegree returns the degree proximity over g.
func NewDegree(g *graph.Graph) *Degree {
	return &Degree{PreferentialAttachment: *NewPreferentialAttachment(g)}
}

// Name implements Proximity.
func (*Degree) Name() string { return "degree" }
