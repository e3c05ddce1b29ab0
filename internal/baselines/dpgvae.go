package baselines

import (
	"context"
	"fmt"
	"math"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/nn"
	"seprivgemb/internal/xrand"
)

// kl weight in the per-example loss.
const klWeight = 1e-3

// DPGVAE trains a simplified-faithful DPGVAE baseline (Yang et
// al., IJCAI 2021): a variational autoencoder over node features trained
// end-to-end with DPSGD under an RDP accountant, publishing the encoder
// means μ as the node embedding.
//
// Simplifications vs. the original mirror DPGGAN's: JL-projected adjacency
// rows as inputs and compact MLPs, with the DPSGD budget mechanics — and
// therefore the premature-convergence behaviour at small ε — preserved.
func DPGVAE(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("dpgvae: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	if cfg.BatchSize > n {
		return nil, fmt.Errorf("dpgvae: batch %d exceeds %d nodes", cfg.BatchSize, n)
	}
	rng := xrand.New(cfg.Seed ^ 0x564145) // "VAE"
	// Counter-addressed DP noise, keyed (epoch, network): bit-identical
	// repeats of one config, independent of draw order (see DPGGAN).
	noise := xrand.NewStream(cfg.Seed ^ 0x564145)
	feat := ProjectAdjacency(g, cfg.Dim, rng)

	// Encoder emits [μ ‖ logvar]; decoder reconstructs the feature.
	enc := nn.NewMLP([]int{cfg.Dim, cfg.Dim, 2 * cfg.Dim},
		[]nn.Activation{nn.Tanh, nn.Identity}, rng)
	decoder := nn.NewMLP([]int{cfg.Dim, cfg.Dim, cfg.Dim},
		[]nn.Activation{nn.Tanh, nn.Identity}, rng)

	acct := dp.NewAccountant(nil)
	gamma := float64(cfg.BatchSize) / float64(n)

	encBatch, encOne := nn.NewGrads(enc), nn.NewGrads(enc)
	decBatch, decOne := nn.NewGrads(decoder), nn.NewGrads(decoder)
	var encCache, decCache nn.Cache
	zEps := make([]float64, cfg.Dim)
	zSample := make([]float64, cfg.Dim)
	dRecon := make([]float64, cfg.Dim)
	dEncOut := make([]float64, 2*cfg.Dim)
	epochs, stoppedByBudget := 0, false
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		encBatch.Zero()
		decBatch.Zero()
		for _, u := range rng.SampleWithoutReplacement(n, cfg.BatchSize) {
			x := feat.Row(u)
			encOut := enc.Forward(x, &encCache)
			mu, logvar := encOut[:cfg.Dim], encOut[cfg.Dim:]
			// Reparameterize z = μ + exp(logvar/2)·ε.
			rng.NormalVec(zEps, 1)
			for d := 0; d < cfg.Dim; d++ {
				zSample[d] = mu[d] + math.Exp(0.5*logvar[d])*zEps[d]
			}
			recon := decoder.Forward(zSample, &decCache)
			// Reconstruction gradient (MSE) through the decoder.
			for d := range dRecon {
				_, dRecon[d] = nn.MSE(recon[d], x[d])
			}
			decOne.Zero()
			dz := decoder.Backward(&decCache, dRecon, decOne)
			// Encoder gradient: reparameterization plus KL terms
			// KL = ½Σ(μ² + e^{logvar} − logvar − 1).
			for d := 0; d < cfg.Dim; d++ {
				ev := math.Exp(logvar[d])
				dEncOut[d] = dz[d] + klWeight*mu[d]
				dEncOut[cfg.Dim+d] = dz[d]*0.5*math.Exp(0.5*logvar[d])*zEps[d] +
					klWeight*0.5*(ev-1)
			}
			encOne.Zero()
			enc.Backward(&encCache, dEncOut, encOne)
			// Per-example clipping on both networks (one joint example).
			encOne.Clip(cfg.Clip)
			decOne.Clip(cfg.Clip)
			encBatch.Add(encOne)
			decBatch.Add(decOne)
		}
		encBatch.AddNoise(cfg.Clip*cfg.Sigma, noise.Derive(uint64(epoch)).Derive(0))
		decBatch.AddNoise(cfg.Clip*cfg.Sigma, noise.Derive(uint64(epoch)).Derive(1))
		enc.ApplySGD(encBatch, cfg.LearningRate, float64(cfg.BatchSize))
		decoder.ApplySGD(decBatch, cfg.LearningRate, float64(cfg.BatchSize))

		acct.AddGaussianStep(gamma, cfg.Sigma)
		epochs = epoch + 1
		if dHat, _ := acct.DeltaFor(cfg.Epsilon); dHat >= cfg.Delta {
			stoppedByBudget = true
			break
		}
	}

	// Embedding: the encoder means μ.
	emb := mathx.NewMatrix(n, cfg.Dim)
	for u := 0; u < n; u++ {
		out := enc.Forward(feat.Row(u), &encCache)
		copy(emb.Row(u), out[:cfg.Dim])
	}
	eps, _ := acct.EpsilonFor(cfg.Delta)
	dHat, _ := acct.DeltaFor(cfg.Epsilon)
	return &Result{
		Embedding:       emb,
		Epochs:          epochs,
		EpsilonSpent:    eps,
		DeltaSpent:      dHat,
		StoppedByBudget: stoppedByBudget,
	}, nil
}
