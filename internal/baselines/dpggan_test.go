package baselines

import (
	"context"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/xrand"
)

func TestDiscriminatorLearnsUnderGenerousBudget(t *testing.T) {
	// With ample budget and epochs the discriminator should move away from
	// its initialization (embeddings differ between 1 and many epochs).
	g := graph.BarabasiAlbert(60, 3, xrand.New(5))
	cfg := testConfig()
	cfg.Dim = 16
	cfg.BatchSize = 16
	cfg.Epsilon = 50
	cfg.Seed = 6

	cfg.Epochs = 1
	one, err := DPGGAN(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 30
	many, err := DPGGAN(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var diff float64
	for i := range one.Embedding.Data {
		d := one.Embedding.Data[i] - many.Embedding.Data[i]
		diff += d * d
	}
	if diff == 0 {
		t.Error("30 epochs of GAN training left the embedding identical to 1 epoch")
	}
}

func TestHiddenLayerIsEmbedding(t *testing.T) {
	g := graph.BarabasiAlbert(40, 2, xrand.New(7))
	cfg := testConfig()
	cfg.Dim = 20
	cfg.BatchSize = 8
	cfg.Epochs = 2
	res, err := DPGGAN(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Embedding.Cols != 20 {
		t.Errorf("embedding dim %d, want 20 (the hidden width)", res.Embedding.Cols)
	}
}
