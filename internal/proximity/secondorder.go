package proximity

import (
	"math"

	"seprivgemb/internal/graph"
)

// This file implements the second-order measures of Definition 4, based on
// two-hop neighborhoods.

// AdamicAdar is p_ij = Σ_{w ∈ N(i) ∩ N(j)} 1/log(d_w), the classic link
// predictor that discounts high-degree shared neighbors logarithmically.
// Shared neighbors of degree 1 cannot occur (such a w would need edges to
// both i and j); degree-2 and higher use 1/log d_w directly.
type AdamicAdar struct {
	g   *graph.Graph
	deg []int
}

// NewAdamicAdar returns the Adamic–Adar proximity over g.
func NewAdamicAdar(g *graph.Graph) *AdamicAdar {
	return &AdamicAdar{g: g, deg: g.Degrees()}
}

// Name implements Proximity.
func (*AdamicAdar) Name() string { return "adamic-adar" }

// NumNodes implements Proximity.
func (a *AdamicAdar) NumNodes() int { return a.g.NumNodes() }

// term is common neighbor w's addend, 1/log d_w.
func (a *AdamicAdar) term(w int32) float64 {
	d := a.deg[w]
	if d < 2 {
		return 0 // cannot be a shared neighbor; also guards log(1)=0
	}
	return 1 / math.Log(float64(d))
}

// At implements Proximity.
func (a *AdamicAdar) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return graph.SumCommon(a.g.Neighbors(i), a.g.Neighbors(j), a.term, 0, 0)
}

// Row implements Proximity.
func (a *AdamicAdar) Row(i int) []Entry {
	return twoHopRow(a.g, i, a.term)
}

// ResourceAllocation is p_ij = Σ_{w ∈ N(i) ∩ N(j)} 1/d_w (Zhou et al.),
// a stronger degree discount than Adamic–Adar.
type ResourceAllocation struct {
	g   *graph.Graph
	deg []int
}

// NewResourceAllocation returns the resource-allocation proximity over g.
func NewResourceAllocation(g *graph.Graph) *ResourceAllocation {
	return &ResourceAllocation{g: g, deg: g.Degrees()}
}

// Name implements Proximity.
func (*ResourceAllocation) Name() string { return "resource-allocation" }

// NumNodes implements Proximity.
func (r *ResourceAllocation) NumNodes() int { return r.g.NumNodes() }

// term is common neighbor w's addend, 1/d_w.
func (r *ResourceAllocation) term(w int32) float64 {
	d := r.deg[w]
	if d == 0 {
		return 0
	}
	return 1 / float64(d)
}

// At implements Proximity.
func (r *ResourceAllocation) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return graph.SumCommon(r.g.Neighbors(i), r.g.Neighbors(j), r.term, 0, 0)
}

// Row implements Proximity.
func (r *ResourceAllocation) Row(i int) []Entry {
	return twoHopRow(r.g, i, r.term)
}
