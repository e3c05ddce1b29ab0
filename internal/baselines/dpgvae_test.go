package baselines

import (
	"context"
	"math"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

func TestEncoderMeansAreFinite(t *testing.T) {
	g := graph.BarabasiAlbert(50, 2, xrand.New(8))
	cfg := testConfig()
	cfg.Dim = 16
	cfg.BatchSize = 16
	cfg.Epochs = 5
	res, err := DPGVAE(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Embedding.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("VAE produced non-finite embedding values")
		}
	}
}

func TestStructurallyEquivalentNodesGetSimilarMeans(t *testing.T) {
	// Nodes with identical neighborhoods have identical input features, so
	// the deterministic encoder must assign them identical means.
	b := graph.NewBuilder(6)
	_ = b.AddEdge(0, 2)
	_ = b.AddEdge(0, 3)
	_ = b.AddEdge(1, 2)
	_ = b.AddEdge(1, 3)
	_ = b.AddEdge(4, 5)
	g := b.Build()
	cfg := testConfig()
	cfg.Dim = 8
	cfg.BatchSize = 4
	cfg.Epochs = 3
	res, err := DPGVAE(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	emb := res.Embedding
	for d := 0; d < cfg.Dim; d++ {
		if math.Abs(emb.At(0, d)-emb.At(1, d)) > 1e-9 {
			t.Fatalf("structurally equivalent nodes 0 and 1 got different means")
		}
	}
}
