package methods

import (
	"context"
	"math"
	"strings"
	"testing"

	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

func TestCanonical(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"", Default},
		{"sepriv", Default},
		{"  SePriv \n", Default},
		{"se-privgemb", Default},
		{"SEPrivGEmb", Default},
		{"gap", "gap"},
		{"GAP", "gap"},
		{"ProGAP", "progap"},
		{"dpggan", "dpggan"},
		{"DPGVAE", "dpgvae"},
	} {
		got, err := Canonical(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"nope", "sep riv", "gap2"} {
		if _, err := Canonical(bad); err == nil {
			t.Errorf("Canonical(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "known:") {
			t.Errorf("Canonical(%q) error %q does not list the valid names", bad, err)
		}
	}
}

// TestRegistryListing pins the registry surface: the five methods, sorted,
// exactly one default, proximity consumed only by the paper's method, and
// a non-empty description everywhere.
func TestRegistryListing(t *testing.T) {
	wantNames := []string{"dpggan", "dpgvae", "gap", "progap", "sepriv"}
	names := Names()
	if len(names) != len(wantNames) {
		t.Fatalf("Names() = %v, want %v", names, wantNames)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, wantNames)
		}
	}
	defaults := 0
	for _, info := range List() {
		if info.Default {
			defaults++
			if info.Name != Default {
				t.Errorf("default flag on %q, want %q", info.Name, Default)
			}
		}
		if info.Description == "" {
			t.Errorf("%s has no description", info.Name)
		}
		if info.UsesProximity != (info.Name == Default) {
			t.Errorf("%s UsesProximity = %v", info.Name, info.UsesProximity)
		}
		m, err := Get(info.Name)
		if err != nil {
			t.Fatalf("Get(%q): %v", info.Name, err)
		}
		if m.Info != info || m.Train == nil {
			t.Errorf("Get(%q) = %+v, listed as %+v", info.Name, m.Info, info)
		}
	}
	if defaults != 1 {
		t.Errorf("listing has %d defaults, want exactly 1", defaults)
	}
	if _, err := Get("unknown"); err == nil {
		t.Error("Get of an unknown method accepted")
	}
}

func TestValidateConfig(t *testing.T) {
	g := graph.BarabasiAlbert(30, 2, xrand.New(3))
	ok := core.DefaultConfig()
	ok.BatchSize = g.NumEdges()

	if err := ValidateConfig("", g, ok); err != nil {
		t.Errorf("default method rejected a default config: %v", err)
	}
	if err := ValidateConfig("gap", g, ok); err != nil {
		t.Errorf("gap rejected a default config: %v", err)
	}
	if err := ValidateConfig("bogus", g, ok); err == nil {
		t.Error("unknown method accepted")
	}

	nonPriv := ok
	nonPriv.Private = false
	if err := ValidateConfig("dpggan", g, nonPriv); err == nil {
		t.Error("non-private baseline config accepted")
	}
	// The default method has a non-private counterpart, so the same config
	// is fine there.
	if err := ValidateConfig(Default, g, nonPriv); err != nil {
		t.Errorf("non-private default config rejected: %v", err)
	}

	badEps := ok
	badEps.Epsilon = -1
	if err := ValidateConfig("dpgvae", g, badEps); err == nil {
		t.Error("negative epsilon accepted for a baseline")
	}
	badDelta := ok
	badDelta.Delta = 1.5
	if err := ValidateConfig("progap", g, badDelta); err == nil {
		t.Error("delta > 1 accepted for a baseline")
	}
	// The default method runs the core trainer's own validation.
	if err := ValidateConfig(Default, g, badDelta); err == nil {
		t.Error("delta > 1 accepted for the default method")
	}
	bigBatch := ok
	bigBatch.BatchSize = g.NumEdges() + 1
	if err := ValidateConfig(Default, g, bigBatch); err == nil {
		t.Error("batch above |E| accepted for the default method")
	}
}

// TestBaselineConfigMapping pins the core.Config → baselines.Config
// derivation, in particular the node clamp: baselines sample nodes, so a
// batch larger than |V| must shrink to |V| (not |E|).
func TestBaselineConfigMapping(t *testing.T) {
	g := graph.BarabasiAlbert(25, 2, xrand.New(3))
	cfg := core.DefaultConfig()
	cfg.Dim = 48
	cfg.BatchSize = 1000
	cfg.MaxEpochs = 77
	cfg.Seed = 9

	bcfg := BaselineConfig(cfg, g)
	if bcfg.Dim != 48 || bcfg.Epochs != 77 || bcfg.Seed != 9 {
		t.Errorf("field mapping wrong: %+v", bcfg)
	}
	if bcfg.BatchSize != g.NumNodes() {
		t.Errorf("batch = %d, want clamped to |V| = %d", bcfg.BatchSize, g.NumNodes())
	}
	if bcfg.Epsilon != cfg.Epsilon || bcfg.Delta != cfg.Delta || bcfg.Sigma != cfg.Sigma ||
		bcfg.LearningRate != cfg.LearningRate || bcfg.Clip != cfg.Clip {
		t.Errorf("privacy/DPSGD knobs diverge: %+v", bcfg)
	}
	if err := bcfg.Validate(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}

// TestBaselineTrainerRejections: a baseline's Train refuses what it
// cannot honor instead of silently dropping it, and rejects every config
// ValidateConfig rejects — Train is what a Session calls, with no
// submission-time check in front of it.
func TestBaselineTrainerRejections(t *testing.T) {
	g := graph.BarabasiAlbert(20, 2, xrand.New(3))
	m, err := Get("gap")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Dim = 8

	if _, err := m.Train(context.Background(), g, nil, cfg, core.Hooks{Resume: &core.Checkpoint{}}); err == nil {
		t.Error("baseline accepted a resume checkpoint")
	}
	nonPriv := cfg
	nonPriv.Private = false
	budget := cfg
	budget.MemoryBudget = 1
	badEps := cfg
	badEps.Epsilon = 0
	for name, bad := range map[string]core.Config{"non-private": nonPriv, "memory-budget": budget, "zero-epsilon": badEps} {
		verr := ValidateConfig("gap", g, bad)
		if verr == nil {
			t.Errorf("ValidateConfig accepted a %s config", name)
		}
		if _, err := m.Train(context.Background(), g, nil, bad, core.Hooks{}); err == nil || verr == nil || err.Error() != verr.Error() {
			t.Errorf("%s config: Train error %v, ValidateConfig error %v", name, err, verr)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Train(ctx, g, nil, cfg, core.Hooks{}); err == nil {
		t.Error("baseline ignored a canceled context")
	}
}

// fnv1a64 hashes a float64 slice bit-exactly, matching the convention of
// internal/core's golden test.
func fnv1a64(xs []float64) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for _, x := range xs {
		b := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// goldenBaselines pins the fixed-seed embedding hash of every baseline as
// trained THROUGH THE REGISTRY (core.Config mapping included), recorded on
// linux/amd64 with Go 1.24. The serving stack deduplicates repeated
// submissions onto one artifact, so baseline training must be bit-identical
// run to run — and worker-count invariant, since cfg.Workers does not reach
// the baselines at all. If a change is *meant* to alter baseline numerics,
// re-record and say why in the commit.
//
// Migration note (PR 7; was dpggan 0x0c7c88d47a23d9c0, dpgvae
// 0xe9b5662bf76626b6, gap 0x0081237d6efee0e4, progap 0x3665245d2f36f3f6):
// the baselines lean on the mathx reductions (nn.MulVec → Dot, Norm2Sq,
// ClipNorm2), whose accumulation moved to the four-lane unrolled order of
// DESIGN.md §12 — the same single summation-order change re-pinned as
// core.goldenEmbedding in the same commit. Distributions, architectures
// and DP accounting are untouched.
//
// Migration note (one-counter ziggurat normals; was dpggan
// 0xc6c2c15e4276c530, dpgvae 0xf5f9ccf8990082e1, gap 0xd27f93a1f65cbb64,
// progap 0x5f7da1e551f6b379): the baselines draw their noise through
// xrand.Stream.NormalAt
// (baselines.AddRowNoise, nn's counter-addressed noise), which moved
// from Box–Muller pairs to a one-counter ziggurat — the same sampler
// change re-pinned as core.goldenEmbedding in the same commit. Each draw
// is still N(0, 1) at the same address; architectures and DP accounting
// are untouched.
var goldenBaselines = map[string]uint64{
	"dpggan": 0x87da3bf4b663035c,
	"dpgvae": 0x3909fa5d12525f66,
	"gap":    0x8e39bb22faccd0a3,
	"progap": 0xee17339d51700704,
}

// TestGoldenBaselineDeterminism trains each baseline twice per worker
// count {1, 4} at quick scale and compares against the recorded hashes.
func TestGoldenBaselineDeterminism(t *testing.T) {
	g := graph.BarabasiAlbert(60, 2, xrand.New(42))
	base := core.DefaultConfig()
	base.Dim = 16
	base.BatchSize = 32
	base.MaxEpochs = 5
	base.Seed = 1

	for name, want := range goldenBaselines {
		t.Run(name, func(t *testing.T) {
			m, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				cfg := base
				cfg.Workers = workers
				res, err := m.Train(context.Background(), g, nil, cfg, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Model.Win.NumRows() != g.NumNodes() || res.Model.Dim != 16 {
					t.Fatalf("embedding shape %dx%d", res.Model.Win.NumRows(), res.Model.Dim)
				}
				if got := fnv1a64(res.Embedding().Data); got != want {
					t.Fatalf("golden hash at Workers=%d = %#x, want %#x\n"+
						"The fixed-seed baseline output changed. If intentional, update goldenBaselines.",
						workers, got, want)
				}
			}
		})
	}
}
