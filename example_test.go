package seprivgemb_test

import (
	"context"
	"fmt"
	"log"

	"seprivgemb"
)

// ringGraph builds a small deterministic cycle graph for the examples.
func ringGraph(n int) *seprivgemb.Graph {
	b := seprivgemb.NewGraphBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n); err != nil {
			log.Fatal(err)
		}
	}
	return b.Build()
}

// sameMatrix reports whether two embeddings are bit-identical.
func sameMatrix(a, b *seprivgemb.Matrix) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// ExampleNewSession trains a private embedding end to end: obtain a graph,
// pick a structure preference, run a session under the paper's defaults,
// and score the released embedding on structural equivalence.
func ExampleNewSession() {
	// The Chameleon simulation at 10% scale; LoadGraph reads your own
	// edge list instead.
	g, err := seprivgemb.GenerateDataset("chameleon", 0.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// DeepWalk proximity reproduces SE-PrivGEmb_DW; any Definition-4
	// measure plugs in the same way.
	prox, err := seprivgemb.NewProximity("deepwalk", g)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's defaults: ε=3.5, δ=1e-5, σ=5, non-zero perturbation
	// (Eq. 9). The epoch hook watches loss and privacy spend live.
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 64
	cfg.MaxEpochs = 100
	cfg.Seed = 42
	res, err := seprivgemb.NewSession(g, prox,
		seprivgemb.WithConfig(cfg),
		seprivgemb.WithEpochHook(func(st seprivgemb.EpochStats) {
			if (st.Epoch+1)%25 == 0 {
				fmt.Printf("epoch %d: loss %.4f, eps spent %.3f\n", st.Epoch+1, st.Loss, st.EpsSpent)
			}
		}),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d epochs (%v); eps spent %.3f at delta %g\n",
		res.Epochs, res.Stopped, res.EpsilonSpent, cfg.Delta)

	// The embedding is differentially private, so everything downstream
	// is post-processing (Theorem 2). The non-private SE-GEmb is the
	// utility ceiling.
	emb := res.Embedding()
	fmt.Printf("private StrucEqu %.4f (%dx%d embedding)\n", seprivgemb.StrucEqu(g, emb), emb.Rows, emb.Cols)
	cfg.Private = false
	free, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-private StrucEqu %.4f\n", seprivgemb.StrucEqu(g, free.Embedding()))
	// Output:
	// graph: 227 nodes, 2982 edges
	// epoch 25: loss 330.1469, eps spent 0.961
	// epoch 50: loss 582.5180, eps spent 1.244
	// epoch 75: loss 914.1681, eps spent 1.445
	// epoch 100: loss 1193.9006, eps spent 1.608
	// trained 100 epochs (completed); eps spent 1.608 at delta 1e-05
	// private StrucEqu 0.6952 (227x64 embedding)
	// non-private StrucEqu 0.7253
}

// ExampleWithResume cancels a run mid-flight, resumes it from the
// checkpoint the partial result carries, and lands on the uninterrupted
// run's embedding bit for bit.
func ExampleWithResume() {
	g := ringGraph(64)
	prox, err := seprivgemb.NewProximity("degree", g)
	if err != nil {
		log.Fatal(err)
	}
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 16
	cfg.BatchSize = 16
	cfg.MaxEpochs = 10
	cfg.Seed = 1

	whole, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// Cancellation stops at the next epoch boundary and still returns the
	// partial result, with a checkpoint to resume from.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := seprivgemb.NewSession(g, prox,
		seprivgemb.WithConfig(cfg),
		seprivgemb.WithEpochHook(func(st seprivgemb.EpochStats) {
			if st.Epoch == 3 {
				cancel()
			}
		}),
	).Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("canceled after %d epochs (%v)\n", partial.Epochs, partial.Stopped)

	resumed, err := seprivgemb.NewSession(g, prox,
		seprivgemb.WithConfig(cfg),
		seprivgemb.WithResume(partial.Checkpoint),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed to %d epochs (%v); bit-identical to the uninterrupted run: %v\n",
		resumed.Epochs, resumed.Stopped, sameMatrix(resumed.Embedding(), whole.Embedding()))
	// Output:
	// canceled after 4 epochs (canceled)
	// resumed to 10 epochs (completed); bit-identical to the uninterrupted run: true
}

// ExampleWithMemoryBudget bounds a run's resident weight state: under a
// budget smaller than the dense 2·|V|·r·8 footprint the matrices move to
// a file-backed spill tier, and the result stays bit-identical to the
// in-memory run — the budget is an execution knob, not a hyperparameter.
func ExampleWithMemoryBudget() {
	g := ringGraph(2048)
	prox, err := seprivgemb.NewProximity("degree", g)
	if err != nil {
		log.Fatal(err)
	}

	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 128 // dense state: 2·2048·128·8 = 4 MiB
	cfg.K = 2
	cfg.BatchSize = 8
	cfg.MaxEpochs = 2
	cfg.Seed = 1

	inMem, err := seprivgemb.NewSession(g, prox,
		seprivgemb.WithConfig(cfg),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	budgeted, err := seprivgemb.NewSession(g, prox,
		seprivgemb.WithConfig(cfg),
		seprivgemb.WithMemoryBudget(3<<20), // 3 MiB, below the 4 MiB dense state
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("spilled run bit-identical to in-memory run: %v\n",
		sameMatrix(inMem.Embedding(), budgeted.Embedding()))
	// Output:
	// spilled run bit-identical to in-memory run: true
}

// ExampleNewAccountant shows the Algorithm 2 budget mechanics: how the
// Rényi-DP accountant's certified ε grows with epochs, and how a run
// whose noise is too small for its budget stops on the δ̂ ≥ δ rule.
func ExampleNewAccountant() {
	// The paper's settings on Chameleon: σ=5, γ = B/|E| = 128/31421.
	const gamma, sigma, delta = 128.0 / 31421.0, 5.0, 1e-5
	acct := seprivgemb.NewAccountant()
	for epoch := 1; epoch <= 2000; epoch++ {
		acct.AddGaussianStep(gamma, sigma)
		switch epoch {
		case 1, 10, 100, 1000, 2000:
			eps, order := acct.EpsilonFor(delta)
			fmt.Printf("%d epochs: eps %.4f (Renyi order %d)\n", epoch, eps, order)
		}
	}

	// Every private session runs the same accountant. Far too little
	// noise for a tight budget ends the run as soon as δ̂ passes δ.
	g, err := seprivgemb.GenerateDataset("chameleon", 0.1, 1)
	if err != nil {
		log.Fatal(err)
	}
	prox, err := seprivgemb.NewProximity("degree", g)
	if err != nil {
		log.Fatal(err)
	}
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 32
	cfg.MaxEpochs = 100000
	cfg.Sigma = 0.7
	cfg.Epsilon = 0.5
	cfg.Seed = 1
	res, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sigma 0.7 at eps 0.5: stopped (%v) at epoch %d, delta-hat %.2e > delta %g\n",
		res.Stopped, res.Epochs, res.DeltaSpent, cfg.Delta)
	// Output:
	// 1 epochs: eps 0.1829 (Renyi order 64)
	// 10 epochs: eps 0.1847 (Renyi order 64)
	// 100 epochs: eps 0.2021 (Renyi order 64)
	// 1000 epochs: eps 0.3655 (Renyi order 53)
	// 2000 epochs: eps 0.4834 (Renyi order 41)
	// sigma 0.7 at eps 0.5: stopped (budget) at epoch 1, delta-hat 4.26e-01 > delta 1e-05
}

// ExampleCalibrateGaussianSigma sizes the Gaussian noise multiplier for K
// composed releases at a fixed (ε, δ).
func ExampleCalibrateGaussianSigma() {
	for _, k := range []int{1, 2, 4, 8} {
		fmt.Printf("K=%d: sigma %.3f\n", k, seprivgemb.CalibrateGaussianSigma(1, 1e-5, k))
	}
	// Output:
	// K=1: sigma 4.902
	// K=2: sigma 6.932
	// K=4: sigma 9.803
	// K=8: sigma 13.864
}

// ExampleLinkAUC runs the paper's second downstream task: the edges are
// split 90/10, SE-PrivGEmb and the four baselines train on the retained
// 90% at one privacy budget, and each embedding scores the held-out links
// against sampled non-links by ROC AUC. AUC 0.5 is random guessing, and
// on this 1k-node simulation at ε = 2 every method scores close to it.
func ExampleLinkAUC() {
	g, err := seprivgemb.GenerateDataset("arxiv", 0.2, 3)
	if err != nil {
		log.Fatal(err)
	}
	split, err := seprivgemb.SplitLinkPrediction(g, 0.1, seprivgemb.NewRNG(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nodes; %d train edges, %d test links\n",
		g.NumNodes(), split.Train.NumEdges(), len(split.TestPos))

	// SE-PrivGEmb with the DeepWalk preference at (2, 1e-5)-DP.
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 64
	cfg.MaxEpochs = 300
	cfg.Epsilon = 2
	cfg.Seed = 9
	prox, err := seprivgemb.NewProximity("deepwalk", split.Train)
	if err != nil {
		log.Fatal(err)
	}
	res, err := seprivgemb.NewSession(split.Train, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-7s AUC %.4f\n", "sepriv", seprivgemb.LinkAUC(split, seprivgemb.EmbeddingScorer(res.Embedding())))

	// The four baselines at the same budget, selected by registry name,
	// with baseline-typical optimizer settings. Baselines ignore the
	// proximity and sample their batch from nodes, not edges.
	bcfg := cfg
	bcfg.MaxEpochs = 20
	bcfg.BatchSize = 64
	bcfg.LearningRate = 0.05
	bcfg.Clip = 1
	for _, m := range []string{"dpggan", "dpgvae", "gap", "progap"} {
		bres, err := seprivgemb.NewSession(split.Train, prox,
			seprivgemb.WithConfig(bcfg), seprivgemb.WithMethod(m)).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s AUC %.4f\n", m, seprivgemb.LinkAUC(split, seprivgemb.EmbeddingScorer(bres.Embedding())))
	}
	// Output:
	// 1048 nodes; 2639 train edges, 293 test links
	// sepriv  AUC 0.4917
	// dpggan  AUC 0.4962
	// dpgvae  AUC 0.5146
	// gap     AUC 0.4952
	// progap  AUC 0.4940
}

// ExampleService_Submit publishes one private embedding per structure
// preference — the scenario the paper's introduction motivates — and
// compares how well each recovers structural equivalence. The runs are
// independent jobs, so a Service queues them under one worker budget;
// each result is deterministic, so the output is the same at any
// concurrency.
func ExampleService_Submit() {
	g, err := seprivgemb.GenerateDataset("power", 0.2, 7)
	if err != nil {
		log.Fatal(err)
	}
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 32
	cfg.MaxEpochs = 60
	cfg.Seed = 11

	svc := seprivgemb.NewService(0) // 0 = all CPUs
	defer svc.Close()
	names := []string{"deepwalk", "degree", "common-neighbors", "adamic-adar", "resource-allocation"}
	jobs := make([]*seprivgemb.Job, len(names))
	for i, name := range names {
		prox, err := seprivgemb.NewProximity(name, g)
		if err != nil {
			log.Fatal(err)
		}
		if jobs[i], err = svc.Submit(g, prox, cfg); err != nil {
			log.Fatal(err)
		}
	}
	for i, name := range names {
		res, err := jobs[i].Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-19s StrucEqu %.4f after %d epochs\n",
			name, seprivgemb.StrucEqu(g, res.Embedding()), res.Epochs)
	}
	// Output:
	// deepwalk            StrucEqu 0.3459 after 60 epochs
	// degree              StrucEqu 0.3459 after 60 epochs
	// common-neighbors    StrucEqu 0.3457 after 60 epochs
	// adamic-adar         StrucEqu 0.3457 after 60 epochs
	// resource-allocation StrucEqu 0.3457 after 60 epochs
}

// ExampleService_SubmitSweep submits the shape of the paper's evaluation
// tables as one request: methods down the rows, privacy budgets across
// the columns, mean ± std over repeated seeds. Every cell is a job behind
// the service's queue, so resubmitting the same grid re-serves the
// finished sweep without training a cell.
func ExampleService_SubmitSweep() {
	svc := seprivgemb.NewService(2)
	defer svc.Close()

	// The power-grid simulation at 10% scale, the paper's method against
	// two baselines, two budgets, two seeds: 12 cells, each scored on
	// structural equivalence. Omitted hyperparameters take the paper
	// defaults.
	grid := &seprivgemb.SweepSpec{
		Graphs: []seprivgemb.GraphSource{
			{Dataset: &seprivgemb.DatasetSource{Name: "power", Scale: 0.1, Seed: 7}},
		},
		Methods:   []string{"sepriv", "gap", "progap"},
		Epsilons:  []float64{0.5, 1.0},
		Seeds:     []uint64{1, 2},
		Proximity: "degree",
		Config:    seprivgemb.ConfigSpec{Dim: 16, MaxEpochs: 10},
		Eval:      seprivgemb.SweepEval{Metric: "strucequ", SamplePairs: 2000},
	}
	sw, err := svc.SubmitSweep(grid)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sw.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d cells, %d done\n", len(res.Cells), res.Counts.Done)
	// One row per (graph, method, ε) group, mean ± std over the seeds.
	for _, r := range res.Table.Rows {
		fmt.Printf("%s %-6s eps=%g: %.4f ± %.4f\n", r.Graph, r.Method, r.Epsilon, r.Mean, r.Std)
	}

	// The canonicalized axes hash to the same sweep ID, so the service
	// hands back the finished sweep: no queueing, no training.
	again, err := svc.SubmitSweep(grid)
	if err != nil {
		log.Fatal(err)
	}
	served, ok := again.Result()
	if !ok {
		log.Fatal("the resubmitted sweep is not complete")
	}
	fmt.Printf("resubmitted: same sweep %v, already %s\n", again.ID() == sw.ID(), served.Status)
	// Output:
	// 12 cells, 12 done
	// power@0.1/7 gap    eps=0.5: 0.0039 ± 0.0243
	// power@0.1/7 gap    eps=1: 0.0042 ± 0.0238
	// power@0.1/7 progap eps=0.5: -0.0073 ± 0.0685
	// power@0.1/7 progap eps=1: -0.0039 ± 0.0649
	// power@0.1/7 sepriv eps=0.5: 0.1766 ± 0.0454
	// power@0.1/7 sepriv eps=1: 0.1940 ± 0.0314
	// resubmitted: same sweep true, already done
}
