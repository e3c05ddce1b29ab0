package baselines

import (
	"context"
	"fmt"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/nn"
	"seprivgemb/internal/xrand"
)

// ProGAP trains a simplified-faithful ProGAP baseline
// (Sajadmanesh & Gatica-Perez, "ProGAP: Progressive graph neural networks
// with differential privacy guarantees", WSDM 2024). ProGAP refines GAP by
// training progressively: each stage aggregates the previous stage's
// representation once (with calibrated noise), transforms it, and a
// jumping-knowledge combination of all stages forms the output. Because
// each stage reuses the perturbed output of the one before instead of
// re-aggregating raw features, signal accumulates better per unit of
// budget, which is why the paper observes ProGAP slightly above GAP.
func ProGAP(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("progap: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	rng := xrand.New(cfg.Seed ^ 0x50524f) // "PRO"
	// Per-stage release noise from a counter stream keyed by stage, so
	// repeated runs of one config release identical bits.
	noise := xrand.NewStream(cfg.Seed ^ 0x50524f)
	x := RandomFeatures(n, cfg.Dim, rng)

	// One noisy aggregation release per stage.
	sigma := dp.CalibrateGaussianSigma(cfg.Epsilon, cfg.Delta, hops)

	// Jumping-knowledge accumulator over the noisy stage releases.
	jk := mathx.NewMatrix(n, cfg.Dim)
	cur := x
	for stage := 0; stage < hops; stage++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Aggregate with self-loops so each stage refines rather than
		// replaces its input, then release with calibrated noise. The raw
		// (unnormalized) release keeps the degree-scaled signal; only the
		// next stage's input is renormalized for sensitivity.
		agg := AggregateRaw(g, cur, true)
		AddRowNoise(agg, sigma, noise.Derive(uint64(stage)))
		jk.AddScaled(1, agg)
		// Stage transformation: a fixed random expansion + tanh, the
		// training-free stand-in for the stage's learned module (applied to
		// already-private data: pure post-processing).
		cur = transform(agg, rng.Split())
	}
	mathx.Scale(1/float64(hops), jk.Data)
	return &Result{
		Embedding:    jk,
		Epochs:       hops,
		EpsilonSpent: cfg.Epsilon,
		DeltaSpent:   cfg.Delta,
	}, nil
}

// transform applies a per-stage random square projection with a tanh
// nonlinearity, row-normalized.
func transform(x *mathx.Matrix, rng *xrand.RNG) *mathx.Matrix {
	dim := x.Cols
	w := mathx.NewMatrix(dim, dim)
	rng.NormalVec(w.Data, 1/float64(dim))
	// Blend identity to retain aggregation signal through the stage.
	for d := 0; d < dim; d++ {
		w.Data[d*dim+d] += 1
	}
	out := mathx.NewMatrix(x.Rows, dim)
	tmp := make([]float64, dim)
	for i := 0; i < x.Rows; i++ {
		w.MulVec(tmp, x.Row(i))
		dst := out.Row(i)
		for d := range tmp {
			dst[d] = nn.Tanh.Apply(tmp[d])
		}
	}
	NormalizeRows(out)
	return out
}
