package seprivgemb

// Benchmarks of the training engine itself. The paper's tables and
// figures are regenerated by cmd/experiments (-exp table2 … fig4), which
// runs them as sweeps over the service layer. Run with
//
//	go test -bench=. -benchmem -run '^$' .

import (
	"context"
	"fmt"
	"testing"
	"time"

	"seprivgemb/internal/mathx"
)

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

// BenchmarkTrainWorkersLazyKatz is a whole job on a lazy (unmaterialized)
// Katz proximity — the shape of an inline-graph job, where the structure-
// preference fill builds Katz rows on demand. It reports the fill's share
// as weights-ns/op beside the job's ns/op, so a recording shows both the
// stage and the end-to-end effect of a change to the fill.
func BenchmarkTrainWorkersLazyKatz(b *testing.B) {
	g, err := GenerateDataset("arxiv", 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	prox, err := NewProximity("katz", g)
	if err != nil {
		b.Fatal(err)
	}
	base := DefaultConfig()
	base.Dim = 32
	base.MaxEpochs = 20
	if base.BatchSize > g.NumEdges() {
		base.BatchSize = g.NumEdges()
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			cfg := base
			cfg.Workers = w
			var fill time.Duration
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				res, err := NewSession(g, prox, WithConfig(cfg)).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				fill += res.Stages.EdgeWeights
			}
			b.ReportMetric(float64(fill.Nanoseconds())/float64(b.N), "weights-ns/op")
		})
	}
}

// BenchmarkTrainDatasetJob is the training job of the end-to-end
// benchmark's train-dataset workload — chameleon at scale 0.35, DeepWalk
// proximity, the paper's DefaultConfig, serial — without the HTTP and
// service layers around it. Beside ns/op it reports the three per-epoch
// engine stages from Result.Stages (gradients-, reduce- and update-ns/op),
// so a change to the engine gets a same-shape number per stage.
func BenchmarkTrainDatasetJob(b *testing.B) {
	g, err := GenerateDataset("chameleon", 0.35, 1)
	if err != nil {
		b.Fatal(err)
	}
	prox, err := NewProximity("deepwalk", g)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	var st StageTimings
	for i := 0; b.Loop(); i++ {
		cfg.Seed = uint64(i)
		res, err := NewSession(g, prox, WithConfig(cfg)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		st.Gradients += res.Stages.Gradients
		st.Reduce += res.Stages.Reduce
		st.Update += res.Stages.Update
	}
	for _, m := range []struct {
		d    time.Duration
		unit string
	}{{st.Gradients, "gradients-ns/op"}, {st.Reduce, "reduce-ns/op"}, {st.Update, "update-ns/op"}} {
		b.ReportMetric(float64(m.d.Nanoseconds())/float64(b.N), m.unit)
	}
}

// BenchmarkTrainSpillJob is the training job of the end-to-end
// benchmark's train-spill workload — dblp at scale 0.01, DeepWalk
// proximity, the paper's DefaultConfig, a 32 MiB memory budget (the
// dense state would be 43.8 MiB) and two workers — without the HTTP and
// service layers around it. Beside ns/op it reports the three per-epoch
// engine stages (gradients-, reduce- and update-ns/op; on this tier the
// gradients clock also holds the epoch pins' spill I/O) and the bytes
// each job moved to and from its spill files (spill-read-B/op,
// spill-write-B/op). Each job then shrinks its result to what a service
// keeps of a finished spilled job, Win's two-chunk window, outside the
// timed ns/op: shrink-ns/op times Win's write-back and drop and the
// close of Wout's spill file on their own.
func BenchmarkTrainSpillJob(b *testing.B) {
	g, err := GenerateDataset("dblp", 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	prox, err := NewProximity("deepwalk", g)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MemoryBudget = 32 << 20
	cfg.Workers = 2
	cfg.BatchSize = min(cfg.BatchSize, g.NumEdges())
	var st StageTimings
	var io mathx.SpillStats
	var shrink time.Duration
	// A b.N loop, not b.Loop: b.Loop measures its time budget from the
	// last StartTimer, so a stopped timer inside it never ends the loop.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		res, err := NewSession(g, prox, WithConfig(cfg)).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		st.Gradients += res.Stages.Gradients
		st.Reduce += res.Stages.Reduce
		st.Update += res.Stages.Update
		for _, m := range []mathx.Mat{res.Model.Win, res.Model.Wout} {
			sm, ok := m.(*mathx.SpillMatrix)
			if !ok {
				b.Fatalf("the %d MiB budget trained on the dense tier", cfg.MemoryBudget>>20)
			}
			s := sm.Stats()
			io.BytesRead += s.BytesRead
			io.BytesWritten += s.BytesWritten
		}
		b.StopTimer()
		start := time.Now()
		if err := res.Shrink(); err != nil {
			b.Fatal(err)
		}
		shrink += time.Since(start)
		b.StartTimer()
		res.CloseSpill()
	}
	for _, m := range []struct {
		v    float64
		unit string
	}{
		{float64(st.Gradients.Nanoseconds()), "gradients-ns/op"},
		{float64(st.Reduce.Nanoseconds()), "reduce-ns/op"},
		{float64(st.Update.Nanoseconds()), "update-ns/op"},
		{float64(io.BytesRead), "spill-read-B/op"},
		{float64(io.BytesWritten), "spill-write-B/op"},
		{float64(shrink.Nanoseconds()), "shrink-ns/op"},
	} {
		b.ReportMetric(m.v/float64(b.N), m.unit)
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
