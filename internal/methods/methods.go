// Package methods is the trainer registry of the serving stack: one
// namespace in which the paper's method (sepriv) and every reproduced
// baseline (dpggan, dpgvae, gap, progap) are served. A registry entry is a
// Method: its listing (Info) plus one train function with a uniform
// (ctx, graph, proximity, config, hooks) → core.Result signature, over
// which the service layer applies dedup, quotas, priority admission,
// artifacts and row-window serving without knowing which method runs.
//
// The registry is deliberately static (a fixed map, no Register function):
// the method name is part of the deduplication key, the job ID, and the
// artifact filename, so the name→method mapping must be identical in
// every process that shares an artifact directory. A dynamic registry
// would let two servers disagree about what "gap" means while trusting
// each other's artifacts.
package methods

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"seprivgemb/internal/baselines"
	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/skipgram"
)

// Default is the canonical name of the paper's own method, selected by
// every spec and submission that does not name a method explicitly.
const Default = "sepriv"

// Method is one registry entry: the listing served by GET /v1/methods and
// the function that trains the method.
type Method struct {
	Info
	// Train runs the method. Cancellation granularity is per epoch (or
	// hop); sepriv returns a partial, resumable Result on cancel while the
	// baselines return ctx.Err() (they are cheap enough to restart).
	Train func(ctx context.Context, g *graph.Graph, prox proximity.Proximity, cfg core.Config, hooks core.Hooks) (*core.Result, error)
}

// registry maps canonical names to methods. Keys are the wire names; see
// Canonical for the accepted spellings.
var registry = map[string]Method{
	Default: {
		Info: Info{
			Name:          Default,
			Description:   "SE-PrivGEmb (the paper's method): structure-preference private skip-gram embedding",
			Default:       true,
			UsesProximity: true,
		},
		Train: core.TrainContext,
	},
	"dpggan": baseline("dpggan", "DPGGAN (Yang et al., IJCAI 2021): graph GAN, DPSGD discriminator under an RDP accountant", baselines.DPGGAN),
	"dpgvae": baseline("dpgvae", "DPGVAE (Yang et al., IJCAI 2021): graph VAE trained with DPSGD, encoder means released", baselines.DPGVAE),
	"gap":    baseline("gap", "GAP (Sajadmanesh et al., USENIX Security 2023): noisy multi-hop aggregation of random features", baselines.GAP),
	"progap": baseline("progap", "ProGAP (Sajadmanesh & Gatica-Perez, WSDM 2024): progressive staged aggregation, jumping knowledge", baselines.ProGAP),
}

// aliases maps accepted alternative spellings onto canonical names.
var aliases = map[string]string{
	"se-privgemb": Default,
	"seprivgemb":  Default,
}

// Canonical resolves a user-supplied method name: empty selects Default,
// case is folded, and known aliases map onto registry names. Unknown names
// are an error (the serving layer wraps it into ErrInvalidSpec → 400).
func Canonical(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		return Default, nil
	}
	if a, ok := aliases[n]; ok {
		n = a
	}
	if _, ok := registry[n]; !ok {
		return "", fmt.Errorf("methods: unknown method %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	return n, nil
}

// Get returns the method registered under name (after Canonical
// resolution).
func Get(name string) (Method, error) {
	n, err := Canonical(name)
	if err != nil {
		return Method{}, err
	}
	return registry[n], nil
}

// Names returns every canonical method name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Info describes one registered method for listings (the payload behind
// GET /v1/methods and the facade's Methods()).
type Info struct {
	// Name is the canonical registry name ("sepriv", "gap", ...).
	Name string
	// Description is the method's one-line description.
	Description string
	// Default marks the method selected when a spec names none.
	Default bool
	// UsesProximity reports whether the method consumes the spec's
	// structure preference (false for the feature-based baselines, whose
	// proximity field only contributes to the dedup key).
	UsesProximity bool
}

// List returns the registry listing in Name order.
func List() []Info {
	out := make([]Info, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n].Info)
	}
	return out
}

// ValidateConfig checks cfg against the named method's admission
// requirements — the checks that must reject a submission up front (the
// serving layer maps the error to ErrInvalidSpec → 400) rather than fail a
// job at training time. Each is the same check the method's Train runs
// first: core.Config.Validate for the default method, validateBaseline
// for a baseline.
func ValidateConfig(name string, g *graph.Graph, cfg core.Config) error {
	n, err := Canonical(name)
	if err != nil {
		return err
	}
	if n == Default {
		return cfg.Validate(g)
	}
	return validateBaseline(n, g, cfg)
}

// validateBaseline rejects what a baseline cannot honor: a memory budget,
// a non-private run, and any config whose derived baselines.Config is
// invalid (a non-positive privacy budget, δ ∉ (0,1), ...).
func validateBaseline(name string, g *graph.Graph, cfg core.Config) error {
	if cfg.MemoryBudget > 0 {
		return fmt.Errorf("methods: %s does not support a training memory budget (the out-of-core spill tier is %s-only)", name, Default)
	}
	if !cfg.Private {
		return fmt.Errorf("methods: %s has no non-private variant (private=false is only meaningful for %s)", name, Default)
	}
	if err := BaselineConfig(cfg, g).Validate(); err != nil {
		return fmt.Errorf("methods: %s: %w", name, err)
	}
	return nil
}

// baseline builds the registry entry of one baseline: Train validates cfg
// as ValidateConfig does, maps it onto the baseline hyperparameters, runs
// train, and lifts its Result into the core shape the serving stack
// speaks. The proximity argument is ignored (baselines train on features);
// hooks are ignored too — baselines neither checkpoint nor stream
// per-epoch stats, and a Resume request is rejected rather than silently
// dropped.
func baseline(name, desc string, train func(context.Context, *graph.Graph, baselines.Config) (*baselines.Result, error)) Method {
	return Method{
		Info: Info{Name: name, Description: desc},
		Train: func(ctx context.Context, g *graph.Graph, _ proximity.Proximity, cfg core.Config, hooks core.Hooks) (*core.Result, error) {
			if hooks.Resume != nil {
				return nil, fmt.Errorf("methods: %s does not support checkpoint resume", name)
			}
			if err := validateBaseline(name, g, cfg); err != nil {
				return nil, err
			}
			rep, err := train(ctx, g, BaselineConfig(cfg, g))
			if err != nil {
				return nil, err
			}
			return liftResult(rep), nil
		},
	}
}

// BaselineConfig derives the baseline hyperparameters from a resolved
// core.Config: the shared fields (dim, privacy budget, DPSGD knobs, seed)
// map one to one, MaxEpochs becomes the epoch cap, and the batch — which
// baselines sample from NODES, not edges — is clamped to |V|. The GAP
// family's hop count has no core.Config counterpart; it is fixed inside
// internal/baselines (DESIGN.md §11).
func BaselineConfig(cfg core.Config, g *graph.Graph) baselines.Config {
	bcfg := baselines.Config{
		Dim:          cfg.Dim,
		Epsilon:      cfg.Epsilon,
		Delta:        cfg.Delta,
		Sigma:        cfg.Sigma,
		Epochs:       cfg.MaxEpochs,
		BatchSize:    cfg.BatchSize,
		LearningRate: cfg.LearningRate,
		Clip:         cfg.Clip,
		Seed:         cfg.Seed,
	}
	if n := g.NumNodes(); bcfg.BatchSize > n {
		bcfg.BatchSize = n
	}
	return bcfg
}

// liftResult maps a baseline outcome into core.Result. The model's Wout is
// a zero matrix: baselines have no output-side weights, and the artifact
// format stores both matrices of a skipgram.Model.
func liftResult(rep *baselines.Result) *core.Result {
	emb := rep.Embedding
	stopped := core.StopCompleted
	if rep.StoppedByBudget {
		stopped = core.StopBudget
	}
	return &core.Result{
		Model: &skipgram.Model{
			Dim:  emb.Cols,
			Win:  emb,
			Wout: mathx.NewMatrix(emb.Rows, emb.Cols),
		},
		Epochs:       rep.Epochs,
		Stopped:      stopped,
		EpsilonSpent: rep.EpsilonSpent,
		DeltaSpent:   rep.DeltaSpent,
	}
}
