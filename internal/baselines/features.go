package baselines

import (
	"math"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// RandomFeatures returns an n×dim matrix of unit-ℓ2-norm random rows. The
// paper's evaluation feeds GAP and ProGAP randomly generated node features
// ("we use randomly generated features as inputs for both methods"); this
// is that input.
func RandomFeatures(n, dim int, rng *xrand.RNG) *mathx.Matrix {
	x := mathx.NewMatrix(n, dim)
	rng.NormalVec(x.Data, 1)
	NormalizeRows(x)
	return x
}

// ProjectAdjacency returns node features obtained by projecting each
// degree-normalized adjacency row through a fixed random Gaussian matrix
// into dim dimensions (a Johnson–Lindenstrauss sketch). It lets the
// GAN/VAE baselines consume graph structure at a tractable input width.
func ProjectAdjacency(g *graph.Graph, dim int, rng *xrand.RNG) *mathx.Matrix {
	n := g.NumNodes()
	proj := mathx.NewMatrix(n, dim) // row u of the projection matrix R
	rng.NormalVec(proj.Data, 1/math.Sqrt(float64(dim)))
	out := mathx.NewMatrix(n, dim)
	for u := 0; u < n; u++ {
		du := g.Degree(u)
		if du == 0 {
			continue
		}
		row := out.Row(u)
		w := 1 / float64(du)
		for _, v := range g.Neighbors(u) {
			mathx.AXPY(w, proj.Row(int(v)), row)
		}
	}
	NormalizeRows(out)
	return out
}

// AggregateRaw returns A·X (optionally (A+I)·X), one hop of GNN
// neighborhood aggregation. With unit-norm input rows, one node contributes
// at most 1 to any aggregate, which is the sensitivity bound the GAP family
// calibrates its noise to.
func AggregateRaw(g *graph.Graph, x *mathx.Matrix, selfLoop bool) *mathx.Matrix {
	n := g.NumNodes()
	out := mathx.NewMatrix(n, x.Cols)
	for u := 0; u < n; u++ {
		row := out.Row(u)
		for _, v := range g.Neighbors(u) {
			mathx.AXPY(1, x.Row(int(v)), row)
		}
		if selfLoop {
			mathx.AXPY(1, x.Row(u), row)
		}
	}
	return out
}

// Aggregate returns rowNormalize(A·X), optionally with self-loops: one
// aggregation hop followed by the normalization that bounds the next hop's
// sensitivity.
func Aggregate(g *graph.Graph, x *mathx.Matrix, selfLoop bool) *mathx.Matrix {
	out := AggregateRaw(g, x, selfLoop)
	NormalizeRows(out)
	return out
}

// NormalizeRows rescales every row of x to unit ℓ2 norm, leaving zero rows
// untouched. Row normalization is what bounds aggregation sensitivity in
// the GAP family.
func NormalizeRows(x *mathx.Matrix) {
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		if nrm := mathx.Norm2(row); nrm > 0 {
			mathx.Scale(1/nrm, row)
		}
	}
}

// AddRowNoise perturbs every entry of x with N(0, sd²), drawing from the
// counter stream by flat element index — the deterministic-noise contract
// the core trainer follows (noise is addressed by position, not by draw
// order), which makes every baseline release bit-identical across repeated
// runs of one config. Element k reads counter k.
func AddRowNoise(x *mathx.Matrix, sd float64, s xrand.Stream) {
	if sd <= 0 {
		return
	}
	z := make([]float64, x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		s.NormalsAt(z, uint64(r*x.Cols))
		for c := range row {
			row[c] += sd * z[c]
		}
	}
}
