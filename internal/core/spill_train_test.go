package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

// spillGraph is large enough that a positive MemoryBudget below the dense
// footprint is admissible: with Dim=128 a 64 KiB chunk holds 64 rows, so
// 2048 nodes spread over 32 chunks per matrix (dense footprint 4 MiB,
// minimum budget ~2.1 MiB at B=8, K=2).
func spillGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.BarabasiAlbert(2048, 2, xrand.New(9))
}

func spillConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 128
	cfg.K = 2
	cfg.BatchSize = 8
	cfg.MaxEpochs = 6
	cfg.Seed = 7
	return cfg
}

// TestSpillMatchesDense is the tentpole determinism contract: the same
// config trained on the spill tier — under any admissible budget, at any
// worker count, private or not — is bit-identical to the in-memory run.
func TestSpillMatchesDense(t *testing.T) {
	g := spillGraph(t)
	base := spillConfig()
	budget := int64(3) << 20 // between MinMemoryBudget (~2.1 MiB) and dense (4 MiB)
	if min := base.MinMemoryBudget(g.NumNodes()); budget < min {
		t.Fatalf("test budget %d below minimum %d; enlarge the graph", budget, min)
	}
	if dense := base.DenseStateBytes(g.NumNodes()); budget >= dense {
		t.Fatalf("test budget %d not below dense footprint %d", budget, dense)
	}

	for _, tc := range []struct {
		name     string
		strategy Strategy
		private  bool
	}{
		{"nonzero", StrategyNonZero, true},
		{"nonprivate", StrategyNonZero, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Strategy = tc.strategy
			cfg.Private = tc.private
			dense, err := Train(g, proximity.NewDegree(g), cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantWin := mathx.DigestMat(dense.Model.Win)
			wantWout := mathx.DigestMat(dense.Model.Wout)
			for _, workers := range []int{1, 2, 4} {
				cfg.Workers = workers
				cfg.MemoryBudget = budget
				res, err := Train(g, proximity.NewDegree(g), cfg)
				if err != nil {
					t.Fatal(err)
				}
				win, ok := res.Model.Win.(*mathx.SpillMatrix)
				if !ok {
					t.Fatalf("workers=%d: budgeted run trained on the dense tier (%T)", workers, res.Model.Win)
				}
				wout := res.Model.Wout.(*mathx.SpillMatrix)
				if got := mathx.DigestMat(win); got != wantWin {
					t.Errorf("workers=%d: spilled Win digest %x, dense %x", workers, got, wantWin)
				}
				if got := mathx.DigestMat(wout); got != wantWout {
					t.Errorf("workers=%d: spilled Wout digest %x, dense %x", workers, got, wantWout)
				}
				// The budget is a real bound during training, not advisory:
				// the high-water residency of each matrix stays within its
				// share (pins never force growth past it, because validation
				// admitted the budget against the pinned working set).
				for name, sm := range map[string]*mathx.SpillMatrix{"Win": win, "Wout": wout} {
					if sm.MaxResidentBytes() > sm.BudgetBytes() {
						t.Errorf("workers=%d: %s high-water residency %d exceeds its budget %d",
							workers, name, sm.MaxResidentBytes(), sm.BudgetBytes())
					}
				}
				if total := win.BudgetBytes() + wout.BudgetBytes(); total > budget {
					t.Errorf("workers=%d: per-matrix budgets sum to %d > MemoryBudget %d", workers, total, budget)
				}
			}
		})
	}
}

// TestSpillResumeSmallerBudget checks that the memory budget is a pure
// execution knob across checkpoint/resume: a run checkpointed under one
// budget resumes under a SMALLER budget (or none at all) and still lands
// bit-identical to the uninterrupted in-memory run.
func TestSpillResumeSmallerBudget(t *testing.T) {
	g := spillGraph(t)
	for _, strat := range []struct {
		name     string
		strategy Strategy
	}{{"nonzero", StrategyNonZero}} {
		t.Run(strat.name, func(t *testing.T) {
			cfg := spillConfig()
			cfg.Strategy = strat.strategy
			full, err := Train(g, proximity.NewDegree(g), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := mathx.DigestMat(full.Model.Win)

			// Leg 1 trains under a 3 MiB budget and checkpoints at epoch 3.
			leg1 := cfg
			leg1.MemoryBudget = 3 << 20
			leg1.MaxEpochs = 3
			part, err := TrainContext(context.Background(), g, proximity.NewDegree(g), leg1,
				Hooks{Checkpoint: func(*Checkpoint) {}})
			if err != nil {
				t.Fatal(err)
			}
			ck := part.Checkpoint
			if ck == nil || ck.Epoch != 3 {
				t.Fatalf("leg 1 checkpoint = %+v, want epoch 3", ck)
			}

			// Leg 2 resumes under the smallest admissible budget — tighter
			// than the writing run's.
			leg2 := cfg
			leg2.MemoryBudget = cfg.MinMemoryBudget(g.NumNodes())
			if leg2.MemoryBudget >= leg1.MemoryBudget {
				t.Fatalf("minimum budget %d not smaller than leg 1's %d", leg2.MemoryBudget, leg1.MemoryBudget)
			}
			resumed, err := TrainContext(context.Background(), g, proximity.NewDegree(g), leg2, Hooks{Resume: ck})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := resumed.Model.Win.(*mathx.SpillMatrix); !ok {
				t.Fatalf("resumed run trained on the dense tier (%T)", resumed.Model.Win)
			}
			if got := mathx.DigestMat(resumed.Model.Win); got != want {
				t.Errorf("resume under smaller budget: digest %x, uninterrupted dense %x", got, want)
			}

			// And a spill-written checkpoint resumes on the dense tier too.
			denseCfg := cfg
			denseResumed, err := TrainContext(context.Background(), g, proximity.NewDegree(g), denseCfg, Hooks{Resume: ck})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := denseResumed.Model.Win.(*mathx.Matrix); !ok {
				t.Fatalf("unbudgeted resume trained on the spill tier (%T)", denseResumed.Model.Win)
			}
			if got := mathx.DigestMat(denseResumed.Model.Win); got != want {
				t.Errorf("dense resume of spilled checkpoint: digest %x, want %x", got, want)
			}
		})
	}
}

// TestSpillBudgetValidation pins the admission contract: budgets below the
// pinned working set are rejected with an actionable error, the private
// naive strategy is rejected with any budget, and a budget at or above the
// dense footprint falls back to the dense tier.
func TestSpillBudgetValidation(t *testing.T) {
	g := spillGraph(t)
	cfg := spillConfig()
	cfg.MaxEpochs = 1

	cfg.MemoryBudget = cfg.MinMemoryBudget(g.NumNodes()) - 1
	if _, err := Train(g, proximity.NewDegree(g), cfg); err == nil {
		t.Error("budget below MinMemoryBudget was accepted")
	}

	cfg.MemoryBudget = -1
	if _, err := Train(g, proximity.NewDegree(g), cfg); err == nil {
		t.Error("negative budget was accepted")
	}

	naive := cfg
	naive.Strategy = StrategyNaive
	for _, budget := range []int64{3 << 20, cfg.DenseStateBytes(g.NumNodes())} {
		naive.MemoryBudget = budget
		if _, err := Train(g, proximity.NewDegree(g), naive); err == nil || !strings.Contains(err.Error(), "naive") {
			t.Errorf("naive strategy with a %d B budget: err = %v, want a rejection naming the strategy", budget, err)
		}
	}
	naive.Private, naive.MemoryBudget = false, 3<<20 // the strategy is ignored without noise
	if _, err := Train(g, proximity.NewDegree(g), naive); err != nil {
		t.Errorf("non-private run with the naive strategy and a budget: %v", err)
	}

	cfg.MemoryBudget = cfg.DenseStateBytes(g.NumNodes())
	res, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Model.Win.(*mathx.Matrix); !ok {
		t.Errorf("budget at the dense footprint selected the spill tier (%T)", res.Model.Win)
	}
}

// TestSpillResidencyBounded is the capacity claim at paper scale: a
// 2^20-node graph whose dense training state would be 256 MiB trains
// under a 16 MiB budget, with the spill tier's high-water residency held
// to the budget and the process heap nowhere near the dense footprint.
func TestSpillResidencyBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("2^20-node training in -short mode")
	}
	const n = 1 << 20
	g := graph.BarabasiAlbert(n, 2, xrand.New(3))
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.K = 2
	cfg.BatchSize = 32
	cfg.MaxEpochs = 2
	cfg.Private = false
	cfg.Clip = 0
	cfg.Seed = 11
	cfg.Workers = 4
	cfg.MemoryBudget = 16 << 20

	if dense := cfg.DenseStateBytes(n); dense != 256<<20 {
		t.Fatalf("dense footprint = %d, want 256 MiB", dense)
	}
	if min := cfg.MinMemoryBudget(n); min > cfg.MemoryBudget {
		t.Fatalf("minimum budget %d exceeds the 16 MiB test budget", min)
	}

	res, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	win, ok := res.Model.Win.(*mathx.SpillMatrix)
	if !ok {
		t.Fatalf("budgeted run trained on the dense tier (%T)", res.Model.Win)
	}
	wout := res.Model.Wout.(*mathx.SpillMatrix)
	for name, sm := range map[string]*mathx.SpillMatrix{"Win": win, "Wout": wout} {
		if sm.MaxResidentBytes() > sm.BudgetBytes() {
			t.Errorf("%s high-water residency %d exceeds its budget %d", name, sm.MaxResidentBytes(), sm.BudgetBytes())
		}
	}

	// The whole process heap — graph, samplers, and the resident spill
	// window together — must sit far below the dense 256 MiB the weights
	// alone would have cost.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 192<<20 {
		t.Errorf("HeapAlloc = %d MiB after budgeted training, want well under the dense 256 MiB", ms.HeapAlloc>>20)
	}
}

// TestSpillSharesFitBudget: the Win/Wout split never hands out more than
// MemoryBudget, never gives a matrix more than it takes to hold the whole
// matrix resident, and still covers each matrix's pin floor. When Wout's
// floor already covers all of Wout (the train-spill benchmark shape:
// 22,440 nodes, 351 chunks, a 352-chunk floor, a 32 MiB budget), the
// surplus Wout cannot use goes to Win.
func TestSpillSharesFitBudget(t *testing.T) {
	const chunk = 64 << 10
	for _, tc := range []struct {
		nodes  int
		cfg    Config
		budget int64
	}{
		{2048, spillConfig(), 3 << 20},
		{2048, spillConfig(), spillConfig().MinMemoryBudget(2048)},
		{22440, DefaultConfig(), 32 << 20},
		{22440, DefaultConfig(), DefaultConfig().MinMemoryBudget(22440)},
		{1 << 20, DefaultConfig(), 256 << 20},
	} {
		cfg := tc.cfg
		cfg.MemoryBudget = tc.budget
		if !cfg.spillActive(tc.nodes) || tc.budget < cfg.MinMemoryBudget(tc.nodes) {
			t.Fatalf("%d nodes, %d B: not an admissible spill budget", tc.nodes, tc.budget)
		}
		win, wout := cfg.spillShares(tc.nodes)
		full := mathx.SpillFullBytes(tc.nodes, cfg.Dim)
		if win+wout > tc.budget {
			t.Errorf("%d nodes, %d B: shares %d + %d exceed the budget", tc.nodes, tc.budget, win, wout)
		}
		if win > full || wout > full {
			t.Errorf("%d nodes, %d B: shares %d, %d exceed the %d B matrix", tc.nodes, tc.budget, win, wout, full)
		}
		if floor := mathx.MinSpillBudget(tc.nodes, cfg.Dim, cfg.BatchSize); win < min(floor, full) {
			t.Errorf("%d nodes, %d B: Win share %d below its floor %d", tc.nodes, tc.budget, win, floor)
		}
		if floor := mathx.MinSpillBudget(tc.nodes, cfg.Dim, (cfg.K+1)*cfg.BatchSize); wout < min(floor, full) {
			t.Errorf("%d nodes, %d B: Wout share %d below its floor %d", tc.nodes, tc.budget, wout, floor)
		}
	}
	cfg := DefaultConfig()
	cfg.MemoryBudget = 32 << 20
	if win, wout := cfg.spillShares(22440); wout != 351*chunk || win != (512-351)*chunk {
		t.Errorf("train-spill shape: shares %d + %d chunks, want 161 + 351", win/chunk, wout/chunk)
	}
	// Its minimum: B = 128 Win chunks and all 351 of Wout's, no spare.
	if got := cfg.MinMemoryBudget(22440); got != (128+351)*chunk {
		t.Errorf("train-spill shape: MinMemoryBudget %d B, want %d (128 + 351 chunks)", got, (128+351)*chunk)
	}
}

// TestSpilledResultConcurrentRows: several goroutines read random row
// windows of one spilled result, with digests of the whole embedding
// racing them, while another goroutine pins and unpins scattered rows as
// an epoch would, under a budget small enough that its pins keep
// evicting chunks, writing their rows back and recycling their slabs
// while each window copies the rows it finds in them and reads the rest
// from the file. Every window is bit-equal to the dense run's rows and
// every digest to the dense digest. Run it under -race (make race).
func TestSpilledResultConcurrentRows(t *testing.T) {
	g := spillGraph(t)
	cfg := spillConfig()
	dense, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemoryBudget = cfg.MinMemoryBudget(g.NumNodes())
	res, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	win, ok := res.Model.Win.(*mathx.SpillMatrix)
	if !ok {
		t.Fatalf("budgeted run trained on the dense tier (%T)", res.Model.Win)
	}
	want := dense.Model.Win.(*mathx.Matrix)
	wantDigest := mathx.DigestMat(want)
	n := g.NumNodes()
	evictions := win.Stats().Evictions

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	stop := make(chan struct{})
	var pinner sync.WaitGroup
	pinner.Add(1)
	go func() {
		defer pinner.Done()
		rng := xrand.New(99)
		rows := make([]int32, cfg.BatchSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range rows {
				rows[i] = int32(rng.Intn(n))
			}
			pins, err := win.PinViews(rows, make([][]float64, len(rows)))
			if err != nil {
				errs <- err
				return
			}
			win.Unpin(pins)
		}
	}()
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for k := 0; k < 60; k++ {
				lo := rng.Intn(n)
				hi := min(n, lo+1+rng.Intn(200))
				w, err := res.Rows(lo, hi)
				if err != nil {
					errs <- err
					return
				}
				for i := range w.Data {
					if math.Float64bits(w.Data[i]) != math.Float64bits(want.Data[lo*want.Cols+i]) {
						errs <- fmt.Errorf("window [%d, %d) differs from the dense rows at value %d", lo, hi, i)
						return
					}
				}
			}
		}(uint64(r))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := mathx.DigestMat(win); got != wantDigest {
				errs <- fmt.Errorf("digest %x racing the readers, dense %x", got, wantDigest)
			}
		}()
	}
	wg.Wait()
	close(stop)
	pinner.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if win.Stats().Evictions == evictions {
		t.Error("the pins never evicted a chunk while the readers ran; shrink the budget")
	}
}
