package baselines

import (
	"context"
	"math"
	"testing"

	"seprivgemb/internal/eval"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

func quickConfig() Config {
	cfg := testConfig()
	cfg.Dim = 16
	cfg.Epochs = 10
	cfg.BatchSize = 16
	cfg.Seed = 1
	return cfg
}

// methods lists the four baselines in the paper's presentation order.
var methods = []struct {
	name  string
	train func(context.Context, *graph.Graph, Config) (*Result, error)
}{{"DPGGAN", DPGGAN}, {"DPGVAE", DPGVAE}, {"GAP", GAP}, {"ProGAP", ProGAP}}

func TestAllMethodsProduceFiniteEmbeddings(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, xrand.New(7))
	cfg := quickConfig()
	for _, m := range methods {
		res, err := m.train(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		emb := res.Embedding
		if emb.Rows != g.NumNodes() || emb.Cols != cfg.Dim {
			t.Fatalf("%s: embedding %dx%d, want %dx%d",
				m.name, emb.Rows, emb.Cols, g.NumNodes(), cfg.Dim)
		}
		for _, v := range emb.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite embedding value", m.name)
			}
		}
	}
}

func TestMethodsDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(60, 2, xrand.New(8))
	cfg := quickConfig()
	cfg.Epochs = 3
	for _, m := range methods {
		a, err := m.train(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.train(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Embedding.Data {
			if a.Embedding.Data[i] != b.Embedding.Data[i] {
				t.Fatalf("%s not deterministic", m.name)
			}
		}
	}
}

func TestGAPCapturesSomeStructure(t *testing.T) {
	// On a strongly clustered graph with a generous budget, GAP's noisy
	// aggregation should still beat a random embedding at structural
	// equivalence (this is the paper's reason it outperforms the GAN/VAE
	// baselines on StrucEqu).
	g := graph.StochasticBlockModel(150, 3, 0.3, 0.01, xrand.New(9))
	cfg := quickConfig()
	cfg.Epsilon = 8
	res, err := GAP(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := eval.StrucEqu(g, res.Embedding)
	random := RandomFeatures(g.NumNodes(), cfg.Dim, xrand.New(10))
	seRandom := eval.StrucEqu(g, random)
	if se <= seRandom {
		t.Errorf("GAP StrucEqu %g not above random baseline %g", se, seRandom)
	}
}

func TestGANVAEBatchValidation(t *testing.T) {
	g := graph.BarabasiAlbert(20, 2, xrand.New(12))
	cfg := quickConfig()
	cfg.BatchSize = 100
	if _, err := DPGGAN(context.Background(), g, cfg); err == nil {
		t.Error("oversized batch accepted by DPGGAN")
	}
	if _, err := DPGVAE(context.Background(), g, cfg); err == nil {
		t.Error("oversized batch accepted by DPGVAE")
	}
}

func TestTightBudgetStopsGANEarly(t *testing.T) {
	// With a very small ε the accountant must stop the GAN well before its
	// epoch limit; the run should still return a usable embedding — the
	// "premature convergence" the paper attributes to these
	g := graph.BarabasiAlbert(60, 2, xrand.New(13))
	cfg := quickConfig()
	cfg.Epsilon = 0.01
	cfg.Sigma = 1
	cfg.Epochs = 100000 // would take forever if the stop failed
	res, err := DPGGAN(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding.Rows != g.NumNodes() {
		t.Fatal("embedding shape wrong after early stop")
	}
	if !res.StoppedByBudget {
		t.Error("early-stopped run not flagged StoppedByBudget")
	}
	if res.Epochs >= cfg.Epochs {
		t.Errorf("early stop ran all %d epochs", res.Epochs)
	}
}
