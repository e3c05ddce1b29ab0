package core

import (
	"fmt"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// BenchmarkApplyUpdate measures the update stage in isolation at the
// paper's r = 128 and K = 5: one op is one epoch's replay-perturb-apply
// over Wout then Win (engine.update), from B = 128 slots of random rank-1
// gradients grouped over random touched rows. Sub-benchmarks are
// strategy × worker count; the matrices are bit-identical across worker
// counts (the stage's determinism contract), so sub-benchmarks differ in
// wall-clock and per-worker CPU split only. Allocations stay at one
// closure per matrix at every worker count: the replay scratch is one row
// per worker and the noise is drawn inside the apply loop. Speedups
// manifest on multi-core hosts; `make bench-json` records the trajectory.
func BenchmarkApplyUpdate(b *testing.B) {
	const numNodes = 4096
	strategies := []struct {
		label string
		s     Strategy
	}{
		{"naive", StrategyNaive},
		{"nonzero", StrategyNonZero},
	}
	for _, strat := range strategies {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sx%d", strat.label, workers), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Strategy = strat.s
				cfg.Workers = workers
				rng := xrand.New(7)
				model := skipgram.New(numNodes, cfg.Dim, rng)
				eng := newEngine(model, nil, nil, cfg, xrand.NewStream(1))
				defer eng.close()
				for i := range eng.slots {
					sl := &eng.slots[i]
					in := int32(rng.Intn(numNodes))
					eng.inRows = append(eng.inRows, in)
					for range cfg.K + 1 {
						eng.outRows = append(eng.outRows, int32(rng.Intn(numNodes)))
					}
					rng.NormalVec(sl.grads.GIn, 1)
					rng.NormalVec(sl.grads.Coef, 1)
					sl.grads.VI = model.Win.Row(int(in))
					sl.fIn, sl.fOut = rng.Float64(), rng.Float64()
				}
				eng.groupStage(numNodes)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.update(i)
				}
			})
		}
	}
}

// BenchmarkGenerateSubgraphs tracks Algorithm 1's sharded one-shot pass.
func BenchmarkGenerateSubgraphs(b *testing.B) {
	g := graph.BarabasiAlbert(4000, 5, xrand.New(3))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rng := xrand.New(uint64(i))
				if _, err := GenerateSubgraphsWorkers(g, 5, NegUniform, rng, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainWorkersSpill is a whole training run on the spill tier
// beside the same run in memory, at two worker counts: the per-op ratio
// of spill to dense is the tier's overhead (DESIGN.md §15). The graph and
// config are the spill tests' (a 3 MiB budget between the ~2.1 MiB
// minimum and the 4 MiB dense footprint), with 20 epochs. The spill runs
// also report the bytes each run moved to and from its spill files
// (spill-read-B/op, spill-write-B/op).
func BenchmarkTrainWorkersSpill(b *testing.B) {
	g := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	prox := proximity.NewDeepWalk(g)
	for _, tier := range []struct {
		name   string
		budget int64
	}{{"dense", 0}, {"spill", 3 << 20}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/%d", tier.name, workers), func(b *testing.B) {
				cfg := spillConfig()
				cfg.MaxEpochs = 20
				cfg.MemoryBudget = tier.budget
				cfg.Workers = workers
				b.ReportAllocs()
				var io mathx.SpillStats
				for i := 0; i < b.N; i++ {
					cfg.Seed = uint64(i)
					res, err := Train(g, prox, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					for _, m := range []mathx.Mat{res.Model.Win, res.Model.Wout} {
						if sm, ok := m.(*mathx.SpillMatrix); ok {
							st := sm.Stats()
							io.BytesRead += st.BytesRead
							io.BytesWritten += st.BytesWritten
						}
					}
					b.StartTimer()
				}
				if tier.budget > 0 {
					b.ReportMetric(float64(io.BytesRead)/float64(b.N), "spill-read-B/op")
					b.ReportMetric(float64(io.BytesWritten)/float64(b.N), "spill-write-B/op")
				}
			})
		}
	}
}
