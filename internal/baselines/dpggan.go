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

// zDim is the width of the generator's latent input.
const zDim = 32

// DPGGAN trains a simplified-faithful DPGGAN baseline (Yang et
// al., "Secure deep graph generation with link differential privacy",
// IJCAI 2021): a graph GAN whose discriminator is trained with DPSGD
// (per-example clipping + Gaussian noise) under an RDP accountant, stopping
// when the privacy budget is spent.
//
// Simplifications vs. the original (DESIGN.md §2): node inputs are
// JL-projections of adjacency rows instead of full rows, and the networks
// are compact MLPs. The privacy mechanism — budget spent through noisy
// discriminator gradients, with early stopping at small ε — is preserved,
// which is what drives this method's behaviour in the paper's figures
// (premature convergence at tight budgets).
func DPGGAN(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("dpggan: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumNodes()
	if cfg.BatchSize > n {
		return nil, fmt.Errorf("dpggan: batch %d exceeds %d nodes", cfg.BatchSize, n)
	}
	rng := xrand.New(cfg.Seed ^ 0x47414e) // "GAN"
	// DP noise comes from a counter stream keyed by epoch, never from the
	// sequential rng: index-addressed draws are what make repeated runs of
	// one config bit-identical (the serving layer's dedup currency).
	noise := xrand.NewStream(cfg.Seed ^ 0x47414e)
	feat := ProjectAdjacency(g, cfg.Dim, rng)

	// Discriminator: feature → hidden (the embedding) → real/fake logit.
	disc := nn.NewMLP([]int{cfg.Dim, cfg.Dim, 1}, []nn.Activation{nn.Tanh, nn.Identity}, rng)
	// Generator: z → fake feature.
	gen := nn.NewMLP([]int{zDim, cfg.Dim, cfg.Dim}, []nn.Activation{nn.Tanh, nn.Identity}, rng)

	acct := dp.NewAccountant(nil)
	gamma := float64(cfg.BatchSize) / float64(n)

	dBatch := nn.NewGrads(disc)
	dOne := nn.NewGrads(disc)
	dScratch := nn.NewGrads(disc)
	gBatch := nn.NewGrads(gen)
	var cache, gCache nn.Cache
	z := make([]float64, zDim)
	epochs, stoppedByBudget := 0, false
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// --- Discriminator step (private: touches real node data). ---
		dBatch.Zero()
		for _, u := range rng.SampleWithoutReplacement(n, cfg.BatchSize) {
			// Real example, per-example clipped gradient.
			dOne.Zero()
			out := disc.Forward(feat.Row(u), &cache)
			_, dz := nn.BCEWithLogits(out[0], 1)
			disc.Backward(&cache, []float64{dz}, dOne)
			dOne.Clip(cfg.Clip)
			dBatch.Add(dOne)
			// Fake example: synthetic, carries no individual's data, but is
			// clipped identically to keep the update scale uniform.
			rng.NormalVec(z, 1)
			fake := append([]float64(nil), gen.Forward(z, &gCache)...)
			dOne.Zero()
			out = disc.Forward(fake, &cache)
			_, dz = nn.BCEWithLogits(out[0], 0)
			disc.Backward(&cache, []float64{dz}, dOne)
			dOne.Clip(cfg.Clip)
			dBatch.Add(dOne)
		}
		dBatch.AddNoise(cfg.Clip*cfg.Sigma, noise.Derive(uint64(epoch)))
		disc.ApplySGD(dBatch, cfg.LearningRate, float64(2*cfg.BatchSize))

		// --- Generator step (post-processing of the private D). ---
		gBatch.Zero()
		for b := 0; b < cfg.BatchSize; b++ {
			rng.NormalVec(z, 1)
			fake := gen.Forward(z, &gCache)
			out := disc.Forward(fake, &cache)
			_, dz := nn.BCEWithLogits(out[0], 1) // non-saturating G loss
			dScratch.Zero()
			dFake := disc.Backward(&cache, []float64{dz}, dScratch)
			gen.Backward(&gCache, dFake, gBatch)
		}
		gen.ApplySGD(gBatch, cfg.LearningRate, float64(cfg.BatchSize))

		acct.AddGaussianStep(gamma, cfg.Sigma)
		epochs = epoch + 1
		if dHat, _ := acct.DeltaFor(cfg.Epsilon); dHat >= cfg.Delta {
			stoppedByBudget = true
			break // budget exhausted: the premature stop the paper reports
		}
	}

	// Embedding: the discriminator's hidden representation of each node.
	emb := mathx.NewMatrix(n, cfg.Dim)
	for u := 0; u < n; u++ {
		disc.Forward(feat.Row(u), &cache)
		copy(emb.Row(u), hidden(&cache))
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

// hidden returns the first hidden layer's activations from the cache.
func hidden(c *nn.Cache) []float64 { return c.Layer(1) }
