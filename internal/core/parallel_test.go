package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/panicx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// trainWorkers runs Train at the given worker count with a fresh proximity
// (proximity construction may cache internally, so sharing one across
// concurrent or repeated runs would couple the cases).
func trainWorkers(t *testing.T, g *graph.Graph, cfg Config, workers int) *Result {
	t.Helper()
	cfg.Workers = workers
	res, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertBitIdentical fails unless a and b are bit-for-bit the same Result.
func assertBitIdentical(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.Epochs != b.Epochs || a.StoppedByBudget != b.StoppedByBudget {
		t.Fatalf("%s: epochs/stop diverged: (%d, %v) vs (%d, %v)",
			label, a.Epochs, a.StoppedByBudget, b.Epochs, b.StoppedByBudget)
	}
	if math.Float64bits(a.EpsilonSpent) != math.Float64bits(b.EpsilonSpent) {
		t.Fatalf("%s: EpsilonSpent %v vs %v", label, a.EpsilonSpent, b.EpsilonSpent)
	}
	if math.Float64bits(a.DeltaSpent) != math.Float64bits(b.DeltaSpent) {
		t.Fatalf("%s: DeltaSpent %v vs %v", label, a.DeltaSpent, b.DeltaSpent)
	}
	if len(a.LossHistory) != len(b.LossHistory) {
		t.Fatalf("%s: loss history lengths %d vs %d",
			label, len(a.LossHistory), len(b.LossHistory))
	}
	for i := range a.LossHistory {
		if math.Float64bits(a.LossHistory[i]) != math.Float64bits(b.LossHistory[i]) {
			t.Fatalf("%s: loss[%d] = %v vs %v", label, i, a.LossHistory[i], b.LossHistory[i])
		}
	}
	for name, pair := range map[string][2][]float64{
		"Win":  {a.Model.Win.(*mathx.Matrix).Data, b.Model.Win.(*mathx.Matrix).Data},
		"Wout": {a.Model.Wout.(*mathx.Matrix).Data, b.Model.Wout.(*mathx.Matrix).Data},
	} {
		x, y := pair[0], pair[1]
		if len(x) != len(y) {
			t.Fatalf("%s: %s sizes %d vs %d", label, name, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %v vs %v", label, name, i, x[i], y[i])
			}
		}
	}
}

// TestParallelMatchesSerial is the equivalence suite of the determinism
// contract: for every supported configuration axis, Workers ∈ {2, 4, 7}
// must reproduce the Workers=1 serial baseline bit for bit — embedding,
// loss history and privacy accounting alike.
func TestParallelMatchesSerial(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, xrand.New(11))
	cases := []struct {
		name     string
		private  bool
		strategy Strategy
		neg      NegSampling
	}{
		{"private/nonzero/uniform", true, StrategyNonZero, NegUniform},
		{"private/nonzero/degree", true, StrategyNonZero, NegDegree},
		{"private/naive/uniform", true, StrategyNaive, NegUniform},
		{"private/naive/degree", true, StrategyNaive, NegDegree},
		{"nonprivate/uniform", false, StrategyNonZero, NegUniform},
		{"nonprivate/degree", false, StrategyNonZero, NegDegree},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.MaxEpochs = 12
			cfg.Private = tc.private
			cfg.Strategy = tc.strategy
			cfg.NegSampling = tc.neg
			if !tc.private {
				cfg.Clip = 0
			}
			serial := trainWorkers(t, g, cfg, 1)
			for _, w := range []int{2, 4, 7, 8} {
				par := trainWorkers(t, g, cfg, w)
				assertBitIdentical(t, serial, par, fmt.Sprintf("workers=%d", w))
			}
		})
	}
}

// TestWorkersZeroIsSerial checks that the Workers=0 default selects the
// serial path (same results, no pool).
func TestWorkersZeroIsSerial(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.MaxEpochs = 6
	assertBitIdentical(t, trainWorkers(t, g, cfg, 0), trainWorkers(t, g, cfg, 1), "workers=0")
}

// TestWorkersExceedingBatch runs more workers than batch positions: the
// results must not change.
func TestWorkersExceedingBatch(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.BatchSize = 5
	cfg.MaxEpochs = 6
	assertBitIdentical(t, trainWorkers(t, g, cfg, 1), trainWorkers(t, g, cfg, 16), "workers=16,B=5")
}

// TestApplyUpdateParallelMatchesSerial drives the sharded perturb-and-apply
// stage directly: for both strategies, every worker count must produce the
// bit-identical matrix, because noise is a pure function of
// (epoch, matrix, row, coordinate) rather than of draw order.
func TestApplyUpdateParallelMatchesSerial(t *testing.T) {
	const (
		numRows = 64
		touched = 40
	)
	for _, strat := range []Strategy{StrategyNonZero, StrategyNaive} {
		for _, private := range []bool{true, false} {
			if !private && strat == StrategyNaive {
				continue // strategy is irrelevant on the non-private path
			}
			name := fmt.Sprintf("%v/private=%v", strat, private)
			t.Run(name, func(t *testing.T) {
				base := smallConfig()
				base.Private = private
				base.Strategy = strat
				// One contribution list shared (read-only) by all runs.
				grng := xrand.New(31)
				rows := make([]int32, touched)
				gs := make([][]float64, touched)
				for i := range rows {
					gs[i] = make([]float64, base.Dim)
					grng.NormalVec(gs[i], 1)
					rows[i] = int32(grng.Intn(numRows))
				}
				init := mathx.NewMatrix(numRows, base.Dim)
				grng.NormalVec(init.Data, 1)

				run := func(workers int) *mathx.Matrix {
					cfg := base
					cfg.Workers = workers
					w := init.Clone()
					for epoch := 0; epoch < 3; epoch++ {
						for _, mat := range []uint64{matWin, matWout} {
							applyWith(cfg, w, rows, gs, epoch, mat, 17)
						}
					}
					return w
				}
				serial := run(1)
				for _, workers := range []int{2, 4, 7} {
					par := run(workers)
					for i := range serial.Data {
						if math.Float64bits(serial.Data[i]) != math.Float64bits(par.Data[i]) {
							t.Fatalf("workers=%d: data[%d] = %v vs serial %v",
								workers, i, par.Data[i], serial.Data[i])
						}
					}
				}
			})
		}
	}
}

// TestGenerateSubgraphsWorkersMatchSerial pins Algorithm 1's per-edge
// index-addressed sampling: any worker count must reproduce the serial
// subgraph list exactly, and consume the same single draw from the parent
// RNG.
func TestGenerateSubgraphsWorkersMatchSerial(t *testing.T) {
	g := graph.BarabasiAlbert(70, 3, xrand.New(5))
	for _, ns := range []NegSampling{NegUniform, NegDegree} {
		serialRNG := xrand.New(9)
		serial, err := GenerateSubgraphsWorkers(g, 5, ns, serialRNG, 1)
		if err != nil {
			t.Fatal(err)
		}
		nextDraw := serialRNG.Uint64() // parent state after generation
		for _, workers := range []int{2, 4, 7} {
			parRNG := xrand.New(9)
			par, err := GenerateSubgraphsWorkers(g, 5, ns, parRNG, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(par) != len(serial) {
				t.Fatalf("ns=%v workers=%d: %d subgraphs vs %d", ns, workers, len(par), len(serial))
			}
			for si := range serial {
				a, b := serial[si], par[si]
				if a.I != b.I || a.J != b.J {
					t.Fatalf("ns=%v workers=%d: subgraph %d pair (%d,%d) vs (%d,%d)",
						ns, workers, si, b.I, b.J, a.I, a.J)
				}
				for x := range a.Negs {
					if a.Negs[x] != b.Negs[x] {
						t.Fatalf("ns=%v workers=%d: subgraph %d neg %d differs", ns, workers, si, x)
					}
				}
			}
			if parRNG.Uint64() != nextDraw {
				t.Fatalf("ns=%v workers=%d: parent RNG consumption differs", ns, workers)
			}
		}
	}
}

func TestWorkersValidation(t *testing.T) {
	g := smallGraph(t)
	cfg := smallConfig()
	cfg.Workers = -1
	if _, err := Train(g, proximity.NewDegree(g), cfg); err == nil {
		t.Error("negative worker count accepted")
	}
}

// TestStagePanicReachesTrainGoroutine: a panic inside the gradient stage
// on a pool goroutine is re-raised by computeStage on the calling
// goroutine, not left to end the process, as a *panicx.Error carrying
// the stack of the pool goroutine that ran the failing example.
func TestStagePanicReachesTrainGoroutine(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, xrand.New(4))
	cfg := smallConfig()
	cfg.Workers = 2
	rng := xrand.New(cfg.Seed)
	subs, err := GenerateSubgraphsWorkers(g, cfg.K, cfg.NegSampling, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, len(subs))
	for i := range weights {
		weights[i] = 1
	}
	eng := newEngine(skipgram.New(g.NumNodes(), cfg.Dim, rng), subs, weights, cfg, xrand.NewStream(5))
	idx := rng.SampleWithoutReplacement(len(subs), cfg.BatchSize)
	if err := eng.touchRows(idx); err != nil {
		t.Fatal(err)
	}
	last := (len(idx) - 1) * (cfg.K + 1)
	eng.outViews[last] = eng.outViews[last][:1] // the last slot's Wout row no longer matches v_I
	got := func() (r any) {
		defer func() { r = recover() }()
		eng.computeStage(idx)
		return nil
	}()
	p, ok := got.(*panicx.Error)
	if !ok {
		t.Fatalf("computeStage recovered %v (%T), want a *panicx.Error", got, got)
	}
	for _, frame := range []string{"panicx.Blocks.func", "skipgram.RowLossGradients"} {
		if !strings.Contains(string(p.Stack), frame) {
			t.Fatalf("recovered panic's stack lacks %s:\n%s", frame, p.Stack)
		}
	}
}

// sealedMat is a Mat of a given shape whose every row access panics:
// swapped in for a model's matrices, it fails any stage that reaches the
// model other than through the epoch's views.
type sealedMat struct{ rows, cols int }

func (m sealedMat) NumRows() int            { return m.rows }
func (m sealedMat) NumCols() int            { return m.cols }
func (m sealedMat) ReadRows([]float64, int) { panic("core: a stage read the model outside its views") }
func (m sealedMat) WriteRows(int, []float64) {
	panic("core: a stage wrote the model outside its views")
}

// TestStagesCallNoRow: touchRows resolves one view per touched-row
// position, each the model's own row, and after it the gradient,
// grouping and update stages reach the model only through those views:
// with the model's matrices sealed they run unchanged, at either worker
// count, private or not, and match the same epochs run unsealed.
func TestStagesCallNoRow(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, xrand.New(4))
	for _, private := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			cfg := smallConfig()
			cfg.Private, cfg.Workers, cfg.MaxEpochs = private, workers, 3
			rng := xrand.New(cfg.Seed)
			subs, err := GenerateSubgraphsWorkers(g, cfg.K, cfg.NegSampling, rng, 1)
			if err != nil {
				t.Fatal(err)
			}
			weights := make([]float64, len(subs))
			for i := range weights {
				weights[i] = 1
			}
			model := skipgram.New(g.NumNodes(), cfg.Dim, rng)
			ref := &skipgram.Model{Dim: model.Dim, Win: model.Win.(*mathx.Matrix).Clone(), Wout: model.Wout.(*mathx.Matrix).Clone()}
			win, wout := model.Win.(*mathx.Matrix), model.Wout.(*mathx.Matrix)
			sealed := sealedMat{g.NumNodes(), cfg.Dim}
			eng := newEngine(model, subs, weights, cfg, xrand.NewStream(5))
			refEng := newEngine(ref, subs, weights, cfg, xrand.NewStream(5))
			for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
				idx := rng.SampleWithoutReplacement(len(subs), cfg.BatchSize)
				model.Win, model.Wout = win, wout
				if err := eng.touchRows(idx); err != nil {
					t.Fatal(err)
				}
				if len(eng.inViews) != len(idx) || len(eng.outViews) != len(idx)*(cfg.K+1) {
					t.Fatalf("resolved %d+%d views for %d examples, want %d+%d",
						len(eng.inViews), len(eng.outViews), len(idx), len(idx), len(idx)*(cfg.K+1))
				}
				for p, r := range eng.inRows {
					if &eng.inViews[p][0] != &win.Row(int(r))[0] {
						t.Fatalf("Win view %d is not row %d", p, r)
					}
				}
				for p, r := range eng.outRows {
					if &eng.outViews[p][0] != &wout.Row(int(r))[0] {
						t.Fatalf("Wout view %d is not row %d", p, r)
					}
				}
				model.Win, model.Wout = sealed, sealed
				eng.computeStage(idx)
				eng.groupStage(g.NumNodes())
				eng.update(epoch)
				eng.unpinEpoch()

				if err := refEng.touchRows(idx); err != nil {
					t.Fatal(err)
				}
				refEng.computeStage(idx)
				refEng.groupStage(g.NumNodes())
				refEng.update(epoch)
				refEng.unpinEpoch()
				if !slices.Equal(win.Data, ref.Win.(*mathx.Matrix).Data) || !slices.Equal(wout.Data, ref.Wout.(*mathx.Matrix).Data) {
					t.Fatalf("private=%v workers=%d epoch %d: the sealed model's epoch differs from the unsealed one", private, workers, epoch)
				}
			}
		}
	}
}
