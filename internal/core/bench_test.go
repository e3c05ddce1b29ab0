package core

import (
	"bytes"
	"fmt"
	"io"
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
// wall-clock and per-worker CPU split only. The serial path allocates one
// closure per matrix; above one worker each matrix's panicx.Blocks call
// adds its goroutines, cursor and wait group (12 allocations per op at
// two workers). Nothing else allocates: the replay scratch is one row per
// worker and the noise is drawn inside the apply loop. Speedups manifest
// on multi-core hosts; `make bench-json` records the trajectory.
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
				for i := range eng.slots {
					sl := &eng.slots[i]
					in := int32(rng.Intn(numNodes))
					eng.inRows = append(eng.inRows, in)
					for range cfg.K + 1 {
						eng.outRows = append(eng.outRows, int32(rng.Intn(numNodes)))
					}
					rng.NormalVec(sl.grads.GIn, 1)
					rng.NormalVec(sl.grads.Coef, 1)
					sl.grads.VI = model.Win.(*mathx.Matrix).Row(int(in))
					sl.fIn, sl.fOut = rng.Float64(), rng.Float64()
				}
				if err := eng.pinEpoch(); err != nil {
					b.Fatal(err)
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

// BenchmarkGenerateSubgraphs tracks Algorithm 1's sharded one-shot pass:
// <w> on a power-law graph, and hub/<w> on the same graph with node 0
// joined to every even node: one center of 2,000-odd edges, about a
// tenth of the graph's, that rejects half its candidates.
func BenchmarkGenerateSubgraphs(b *testing.B) {
	g := graph.BarabasiAlbert(4000, 5, xrand.New(3))
	hb := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges() {
		if err := hb.AddEdge(int(e.U), int(e.V)); err != nil {
			b.Fatal(err)
		}
	}
	for v := 2; v < g.NumNodes(); v += 2 {
		if err := hb.AddEdge(0, v); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		prefix string
		g      *graph.Graph
	}{{"", g}, {"hub/", hb.Build()}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprint(c.prefix, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rng := xrand.New(uint64(i))
					if _, err := GenerateSubgraphsWorkers(c.g, 5, NegUniform, rng, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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

// benchPair returns a rows×cols Win/Wout pair of normal draws: like
// trained weights, nearly every value needs gob's full 9-byte encoding.
func benchPair(rows, cols int) (win, wout *mathx.Matrix) {
	rng := xrand.New(5)
	win, wout = mathx.NewMatrix(rows, cols), mathx.NewMatrix(rows, cols)
	rng.NormalVec(win.Data, 1)
	rng.NormalVec(wout.Data, 1)
	return win, wout
}

// BenchmarkWriteIndexed writes the v3 stream of a dense pair the size of
// the train-spill workload's (22,440 × 128, 43.8 MiB of state, 702 chunk
// frames) to io.Discard. Every chunk frame is built in the writer's one
// reused buffer, so allocs/op is a small constant per call, not per frame.
func BenchmarkWriteIndexed(b *testing.B) {
	const rows, cols = 22440, 128
	win, wout := benchPair(rows, cols)
	hdr := checkpointHeader{Version: checkpointVersion, Nodes: rows, Dim: cols}
	b.SetBytes(2 * rows * cols * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteIndexed(io.Discard, &hdr, win, wout); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRows reads row windows of one (1 chunk) and eight chunk
// frames from an in-memory 4,096 × 128 stream, and both matrices whole
// (DecodeAll): the reader's cost per chunk, a fresh gob.Decoder each.
func BenchmarkDecodeRows(b *testing.B) {
	const rows, cols = 4096, 128
	win, wout := benchPair(rows, cols)
	var buf bytes.Buffer
	hdr := checkpointHeader{Version: checkpointVersion, Nodes: rows, Dim: cols}
	if err := WriteIndexed(&buf, &hdr, win, wout); err != nil {
		b.Fatal(err)
	}
	ra, size := bytes.NewReader(buf.Bytes()), int64(buf.Len())
	ix, err := OpenIndexed(ra, size, &hdr)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * cols * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.DecodeRows(ra, ix.Win, size, 1024, 1024+n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("all", func(b *testing.B) {
		b.SetBytes(2 * rows * cols * 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.DecodeAll(ra, size); err != nil {
				b.Fatal(err)
			}
		}
	})
}
