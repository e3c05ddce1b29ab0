// Link prediction under differential privacy: the paper's second
// downstream task. The graph's edges are split 90/10, SE-PrivGEmb and the
// four baselines train on the 90%, and each embedding scores the held-out
// links against sampled non-links (ROC AUC).
package main

import (
	"context"
	"fmt"
	"log"

	"seprivgemb"
)

func main() {
	g, err := seprivgemb.GenerateDataset("arxiv", 0.2, 3)
	if err != nil {
		log.Fatal(err)
	}
	split, err := seprivgemb.SplitLinkPrediction(g, 0.1, seprivgemb.NewRNG(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("arxiv simulation: %d nodes; %d train edges, %d test links\n\n",
		g.NumNodes(), split.Train.NumEdges(), len(split.TestPos))

	const eps = 2.0

	// SE-PrivGEmb with DeepWalk preference.
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 64
	cfg.MaxEpochs = 300
	cfg.Epsilon = eps
	cfg.Seed = 9
	if cfg.BatchSize > split.Train.NumEdges() {
		cfg.BatchSize = split.Train.NumEdges()
	}
	prox, err := seprivgemb.NewProximity("deepwalk", split.Train)
	if err != nil {
		log.Fatal(err)
	}
	res, err := seprivgemb.NewSession(split.Train, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s AUC %.4f\n", "SE-PrivGEmbDW",
		seprivgemb.LinkAUC(split, seprivgemb.EmbeddingScorer(res.Embedding())))

	// The four baselines at the same budget, selected by registry name,
	// with baseline-typical optimizer settings. Baselines ignore the
	// proximity and sample their batch from nodes, not edges.
	bcfg := cfg
	bcfg.MaxEpochs = 60
	bcfg.BatchSize = 64
	bcfg.LearningRate = 0.05
	bcfg.Clip = 1
	for _, m := range []string{"dpggan", "dpgvae", "gap", "progap"} {
		bres, err := seprivgemb.NewSession(split.Train, prox,
			seprivgemb.WithConfig(bcfg), seprivgemb.WithMethod(m)).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s AUC %.4f\n", m,
			seprivgemb.LinkAUC(split, seprivgemb.EmbeddingScorer(bres.Embedding())))
	}
	fmt.Println("\nAll methods hold (2, 1e-5)-DP; AUC > 0.5 beats random guessing.")
}
