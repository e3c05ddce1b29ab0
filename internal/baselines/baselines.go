// Package baselines implements the four published competitors the paper
// evaluates against, one file and one plain function each: DPGGAN and
// DPGVAE (Yang et al., IJCAI 2021), GAP (Sajadmanesh et al., USENIX
// Security 2023) and ProGAP (Sajadmanesh & Gatica-Perez, WSDM 2024).
// Every method has the signature
//
//	func(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error)
//
// and is served through the internal/methods registry, which maps a
// core.Config onto Config and lifts Result into a core.Result.
//
// These are simplified-faithful Go reimplementations (DESIGN.md §2,
// substitution 2): each preserves the original's privacy mechanism — where
// noise is injected and how the budget is spent — on a compact MLP
// substrate, because those mechanisms are what the paper's comparative
// discussion attributes the utility rankings to.
//
// Baselines follow the same serving contract as the core trainer: each
// method checks cfg.Validate first, honors context cancellation at
// epoch/hop granularity (a canceled run returns ctx.Err() and no partial —
// baselines are cheap enough to restart), draws every DP noise sample
// through a counter-based xrand.Stream (so repeated runs of one config are
// bit-identical, the dedup currency of internal/service), and reports the
// privacy actually spent alongside the embedding.
package baselines

import (
	"fmt"
	"math"

	"seprivgemb/internal/mathx"
)

// hops is the number of aggregation hops (GAP) or stages (ProGAP). It is
// fixed: core.Config has no counterpart, and adding one would change
// core.Config.Hash and so every golden hash and artifact of the paper
// method (DESIGN.md §11).
const hops = 2

// Config collects the hyperparameters shared by all baseline methods.
type Config struct {
	Dim          int     // embedding dimension
	Epsilon      float64 // privacy budget ε
	Delta        float64 // failure probability δ
	Sigma        float64 // DPSGD noise multiplier (GAN/VAE baselines)
	Epochs       int     // maximum training epochs
	BatchSize    int     // per-epoch example batch
	LearningRate float64
	Clip         float64 // per-example gradient clipping threshold
	Seed         uint64
}

// Validate rejects configurations no baseline can train under — above all
// non-positive privacy budgets, which the methods previously accepted
// silently (ε ≤ 0 made the GAN/VAE accountant never stop and GAP's sigma
// calibration meaningless). The serving layer runs this at submission so
// an invalid budget is a 400, exactly like an invalid core.Config.
func (c Config) Validate() error {
	// NaN passes every sign check below, and an infinite one trains to
	// non-finite coordinates or certifies a meaningless budget.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"privacy budget epsilon", c.Epsilon}, {"delta", c.Delta}, {"noise multiplier sigma", c.Sigma},
		{"learning rate", c.LearningRate}, {"clip threshold", c.Clip},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("baselines: %s %g must be finite", f.name, f.v)
		}
	}
	switch {
	case c.Dim < 1:
		return fmt.Errorf("baselines: dimension %d must be >= 1", c.Dim)
	case c.Epsilon <= 0:
		return fmt.Errorf("baselines: privacy budget epsilon %g must be positive", c.Epsilon)
	case c.Delta <= 0 || c.Delta >= 1:
		return fmt.Errorf("baselines: delta %g must lie in (0, 1)", c.Delta)
	case c.Sigma <= 0:
		return fmt.Errorf("baselines: noise multiplier sigma %g must be positive", c.Sigma)
	case c.Epochs < 1:
		return fmt.Errorf("baselines: epochs %d must be >= 1", c.Epochs)
	case c.BatchSize < 1:
		return fmt.Errorf("baselines: batch size %d must be >= 1", c.BatchSize)
	case c.LearningRate <= 0:
		return fmt.Errorf("baselines: learning rate %g must be positive", c.LearningRate)
	case c.Clip <= 0:
		return fmt.Errorf("baselines: clip threshold %g must be positive", c.Clip)
	}
	return nil
}

// Result is the outcome of one baseline training run: the (ε, δ)-private
// embedding plus the budget bookkeeping the serving surface reports for
// every method uniformly.
type Result struct {
	// Embedding is the released |V|×Dim matrix.
	Embedding *mathx.Matrix
	// Epochs counts the completed training epochs (aggregation hops/stages
	// for the GAP family, whose "training" is the hop loop).
	Epochs int
	// EpsilonSpent is the ε certified at the configured δ; for the GAP
	// family the calibrated release spends the configured budget exactly.
	EpsilonSpent float64
	// DeltaSpent is the δ̂ certified at the configured ε.
	DeltaSpent float64
	// StoppedByBudget reports an accountant-forced early stop (the
	// premature convergence the paper attributes to the DPSGD baselines).
	StoppedByBudget bool
}
