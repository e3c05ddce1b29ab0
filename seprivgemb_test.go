package seprivgemb_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"seprivgemb"
)

// TestEndToEndPipeline exercises the full public API surface: dataset
// simulation, proximity construction, private training, both evaluation
// metrics, and the privacy bookkeeping.
func TestEndToEndPipeline(t *testing.T) {
	g, err := seprivgemb.GenerateDataset("chameleon", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	prox, err := seprivgemb.NewProximity("deepwalk", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 24
	cfg.MaxEpochs = 40
	cfg.Seed = 3
	if cfg.BatchSize > g.NumEdges() {
		cfg.BatchSize = g.NumEdges()
	}
	res, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsilonSpent <= 0 || res.EpsilonSpent > cfg.Epsilon {
		t.Errorf("epsilon spent %g outside (0, %g]", res.EpsilonSpent, cfg.Epsilon)
	}
	se := seprivgemb.StrucEqu(g, res.Embedding())
	if math.IsNaN(se) || se < -1 || se > 1 {
		t.Errorf("StrucEqu = %g out of range", se)
	}
	split, err := seprivgemb.SplitLinkPrediction(g, 0.1, seprivgemb.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	auc := seprivgemb.LinkAUC(split, seprivgemb.EmbeddingScorer(res.Embedding()))
	if auc < 0 || auc > 1 {
		t.Errorf("AUC = %g out of range", auc)
	}
}

func TestParseGraphAndScorer(t *testing.T) {
	g, err := seprivgemb.ParseGraph(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	b := seprivgemb.NewGraphBuilder(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if b.Build().NumEdges() != 1 {
		t.Fatal("builder lost an edge")
	}
}

func TestBaselinesExposed(t *testing.T) {
	methods := seprivgemb.Baselines()
	if len(methods) != 4 {
		t.Fatalf("want 4 baselines, got %d", len(methods))
	}
	g, err := seprivgemb.GenerateDataset("power", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seprivgemb.DefaultBaselineConfig()
	cfg.Dim = 16
	cfg.Epochs = 3
	cfg.BatchSize = 16
	for _, m := range methods {
		res, err := m.Train(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.Embedding.Rows != g.NumNodes() {
			t.Fatalf("%s: wrong embedding shape", m.Name())
		}
	}
}

func TestAccountantExposed(t *testing.T) {
	acct := seprivgemb.NewAccountant()
	acct.AddGaussianStep(0.01, 5)
	eps, _ := acct.EpsilonFor(1e-5)
	if eps <= 0 {
		t.Errorf("accountant epsilon = %g", eps)
	}
	sigma := seprivgemb.CalibrateGaussianSigma(1, 1e-5, 2)
	if sigma <= 0 {
		t.Errorf("calibrated sigma = %g", sigma)
	}
}

func TestDatasetNames(t *testing.T) {
	if len(seprivgemb.DatasetNames()) != 6 {
		t.Error("expected the paper's six datasets")
	}
}
