package seprivgemb

// One benchmark per table and figure of the paper's evaluation (Section
// VI), each regenerating its experiment at reduced scale through the same
// runners cmd/experiments uses at full scale. Run with
//
//	go test -bench=. -benchmem
//
// and see cmd/experiments for the printing sweeps (-exp table2 … fig4) and
// EXPERIMENTS.md for recorded paper-vs-measured results.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"seprivgemb/internal/experiments"
)

func quickOpts() experiments.Options {
	return experiments.Quick(io.Discard)
}

// BenchmarkTable2BatchSize regenerates Table II: StrucEqu vs batch size B.
func BenchmarkTable2BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable2(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3LearningRate regenerates Table III: StrucEqu vs η.
func BenchmarkTable3LearningRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable3(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4ClipThreshold regenerates Table IV: StrucEqu vs C.
func BenchmarkTable4ClipThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable4(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Negatives regenerates Table V: StrucEqu vs k.
func BenchmarkTable5Negatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable5(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Perturbation regenerates Table VI: naive (Eq. 6) vs
// non-zero (Eq. 9) perturbation across ε.
func BenchmarkTable6Perturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunTable6(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3StructEquiv regenerates the Figure 3 protocol (StrucEqu
// vs ε for all eight methods) on one dataset per topology class.
func BenchmarkFigure3StructEquiv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFigure3Datasets(quickOpts(), []string{"chameleon", "power"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4LinkPrediction regenerates the Figure 4 protocol
// (link-prediction AUC vs ε for all eight methods).
func BenchmarkFigure4LinkPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunFigure4Datasets(quickOpts(), []string{"chameleon"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNegativeSampling compares the paper's uniform Pn(v)
// (Theorem 3) against the prior-work degree-proportional design (Eq. 15).
func BenchmarkAblationNegativeSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAblationNegSampling(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAccountant contrasts RDP composition with naive linear
// composition at the paper's settings.
func BenchmarkAblationAccountant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAblationAccountant(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainWorkers measures the parallel gradient engine on the
// quick-scale chameleon run at increasing worker counts. The trained
// embedding is bit-identical across sub-benchmarks (that is the engine's
// determinism contract), so the sub-benchmarks differ in wall-clock only.
func BenchmarkTrainWorkers(b *testing.B) {
	g, err := GenerateDataset("chameleon", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	prox, err := NewProximity("deepwalk", g)
	if err != nil {
		b.Fatal(err)
	}
	base := DefaultConfig()
	base.Dim = 64
	base.MaxEpochs = 20
	if base.BatchSize > g.NumEdges() {
		base.BatchSize = g.NumEdges()
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			cfg := base
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := NewSession(g, prox, WithConfig(cfg)).Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSweepWorkers measures the experiments-level sweep runner
// fanning independent (method × ε × seed) runs of the Figure 3 protocol
// across goroutines. Printed tables are identical at every worker count.
func BenchmarkParallelSweepWorkers(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := quickOpts()
				opts.Workers = w
				if err := experiments.RunFigure3Datasets(opts, []string{"chameleon"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainPrivateStep measures the core private training loop itself
// (one full SE-PrivGEmb run at quick scale), isolating Algorithm 2 from the
// evaluation harness.
func BenchmarkTrainPrivateStep(b *testing.B) {
	g, err := GenerateDataset("chameleon", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	prox, err := NewProximity("deepwalk", g)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Dim = 32
	cfg.MaxEpochs = 20
	if cfg.BatchSize > g.NumEdges() {
		cfg.BatchSize = g.NumEdges()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := NewSession(g, prox, WithConfig(cfg)).Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
