package baselines

import (
	"context"
	"fmt"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// GAP trains a simplified-faithful GAP baseline (Sajadmanesh et
// al., "GAP: Differentially private graph neural networks with aggregation
// perturbation", USENIX Security 2023). GAP spends its privacy budget by
// perturbing the output of every neighborhood-aggregation step; as the
// paper under reproduction notes, "all aggregate outputs need to be
// re-perturbed at each training iteration", which caps its utility.
//
// This implementation keeps that mechanism exactly: random unit-norm node
// features (the evaluation's input choice) are aggregated for K hops, each
// hop's row-normalized aggregate is perturbed with Gaussian noise
// calibrated so the K releases jointly satisfy (ε, δ)-DP, and everything
// downstream is noise-free post-processing.
func GAP(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("gap: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	rng := xrand.New(cfg.Seed ^ 0x474150) // "GAP"
	// Release noise comes from a counter stream keyed by hop — the
	// index-addressed draws that make repeated releases bit-identical.
	noise := xrand.NewStream(cfg.Seed ^ 0x474150)
	x := RandomFeatures(n, cfg.Dim, rng)

	// Split the budget across the K perturbed aggregation releases. Row
	// normalization bounds each node's contribution to any aggregate at 1,
	// so sensitivity is 1 per release.
	sigma := dp.CalibrateGaussianSigma(cfg.Epsilon, cfg.Delta, hops)

	sum := mathx.NewMatrix(n, cfg.Dim)
	cur := x
	for hop := 0; hop < hops; hop++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		agg := AggregateRaw(g, cur, false)
		AddRowNoise(agg, sigma, noise.Derive(uint64(hop)))
		// The released noisy aggregate keeps its raw scale (row norm grows
		// with degree — the structural signal GAP retains); rows are
		// re-normalized only to bound the next hop's sensitivity.
		sum.AddScaled(1, agg)
		cur = agg.Clone()
		NormalizeRows(cur)
	}
	// Post-processing: average the hop outputs.
	mathx.Scale(1/float64(hops), sum.Data)
	// The calibrated release spends the configured budget exactly.
	return &Result{
		Embedding:    sum,
		Epochs:       hops,
		EpsilonSpent: cfg.Epsilon,
		DeltaSpent:   cfg.Delta,
	}, nil
}
