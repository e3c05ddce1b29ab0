package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// clipJoint rescales the concatenation of rows to ℓ2 norm at most c: the
// eager in-place form of the engine's deferred Wout clip factor, kept as
// the reference the fused update is pinned against.
func clipJoint(rows [][]float64, c float64) {
	var sq float64
	for _, r := range rows {
		sq += mathx.Norm2Sq(r)
	}
	if f := clipFactor(sq, c); f != 1 {
		for _, r := range rows {
			mathx.Scale(f, r)
		}
	}
}

// eagerEpoch is the reference form of one engine epoch, written the way
// the engine's arithmetic was first specified: materialized per-example
// gradient rows, in-place dp.Clip and clipJoint, batch-order sums into a
// per-row map (copy on first touch, AXPY after), then perturb-and-apply
// through a filled noise row. It returns the batch loss.
func eagerEpoch(model *skipgram.Model, subs []Subgraph, weights []float64, idx []int, cfg Config, noise xrand.Stream, epoch int) float64 {
	sumIn, sumOut := map[int32][]float64{}, map[int32][]float64{}
	add := func(sums map[int32][]float64, row int32, g []float64) {
		if dst, ok := sums[row]; ok {
			mathx.AXPY(1, g, dst)
			return
		}
		sums[row] = slices.Clone(g)
	}
	var grads skipgram.Grads
	var loss float64
	for _, si := range idx {
		s := subs[si]
		ex := skipgram.Example{I: s.I, J: s.J, Negs: s.Negs, W: weights[si]}
		loss += model.Loss(ex)
		model.LossGradients(ex, &grads)
		out := make([][]float64, len(grads.OutRows))
		for t := range out {
			out[t] = grads.OutGrad(t, make([]float64, cfg.Dim))
		}
		if cfg.Clip > 0 {
			dp.Clip(grads.GIn, cfg.Clip)
			clipJoint(out, cfg.Clip)
		}
		add(sumIn, int32(grads.InRow), grads.GIn)
		for t, row := range grads.OutRows {
			add(sumOut, row, out[t])
		}
	}
	z := make([]float64, cfg.Dim)
	zero := make([]float64, cfg.Dim)
	for _, m := range []struct {
		w      mathx.Mat
		sums   map[int32][]float64
		matrix uint64
	}{{model.Win, sumIn, matWin}, {model.Wout, sumOut, matWout}} {
		for r := 0; r < m.w.NumRows(); r++ {
			g, touched := m.sums[int32(r)]
			dst := m.w.Row(r)
			switch {
			case !cfg.Private && touched:
				mathx.AXPY(-cfg.LearningRate, g, dst)
			case cfg.Private && (touched || cfg.Strategy == StrategyNaive):
				sd := cfg.Clip * cfg.Sigma
				if cfg.Strategy == StrategyNaive {
					sd *= float64(cfg.BatchSize)
				}
				if !touched {
					g = zero
				}
				noise.Derive(noiseKey(epoch, m.matrix, r)).NormalsAt(z, 0)
				for d := range dst {
					dst[d] -= cfg.LearningRate * (g[d] + sd*z[d])
				}
			}
		}
	}
	return loss
}

// TestReduceStageMatchesEagerClip pins the engine's folded reduce — rank-1
// slots, the grouping pass, and the owner-sharded replay-and-apply with
// deferred clip factors — bit for bit against eagerEpoch, over three
// epochs, at thresholds where clipping bites on every example, on none,
// and when disabled; for the non-zero, naive and non-private updates;
// and at 1, 2, 4 and 7 workers. The batch repeats rows within examples
// (J among the negatives, duplicate negatives) and across them (a small
// graph with B = 32 shares centers and contexts), so every replay branch
// runs.
func TestReduceStageMatchesEagerClip(t *testing.T) {
	g := graph.BarabasiAlbert(50, 3, xrand.New(21))
	for _, clip := range []float64{1e-4, 10, 0} {
		t.Run(fmt.Sprintf("clip=%g", clip), func(t *testing.T) {
			for _, mode := range []struct {
				name     string
				private  bool
				strategy Strategy
			}{
				{"nonzero", true, StrategyNonZero},
				{"naive", true, StrategyNaive},
				{"nonprivate", false, StrategyNonZero},
			} {
				if clip == 0 && mode.private {
					continue // private training needs a clip threshold
				}
				for _, workers := range []int{1, 2, 4, 7} {
					t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
						cfg := smallConfig()
						cfg.Clip, cfg.Private, cfg.Strategy, cfg.Workers = clip, mode.private, mode.strategy, workers
						checkEngineMatchesEager(t, g, cfg)
					})
				}
			}
		})
	}
}

func checkEngineMatchesEager(t *testing.T, g *graph.Graph, cfg Config) {
	t.Helper()
	rng := xrand.New(cfg.Seed)
	subs, err := GenerateSubgraphsWorkers(g, cfg.K, cfg.NegSampling, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Repeat rows within single examples: the positive as a negative, and
	// a negative twice.
	for si := 0; si < len(subs); si += 3 {
		s := &subs[si]
		s.Negs = slices.Clone(s.Negs)
		s.Negs[0] = s.J
		s.Negs[2] = s.Negs[1]
	}
	weights := make([]float64, len(subs))
	wrng := xrand.New(3)
	for i := range weights {
		weights[i] = 0.5 + wrng.Float64()
	}
	model := skipgram.New(g.NumNodes(), cfg.Dim, rng)
	ref := &skipgram.Model{Dim: cfg.Dim, Win: model.Win.(*mathx.Matrix).Clone(), Wout: model.Wout.(*mathx.Matrix).Clone()}
	noise := xrand.NewStream(41)

	eng := newEngine(model, subs, weights, cfg, noise)
	for epoch := 0; epoch < 3; epoch++ {
		idx := rng.SampleWithoutReplacement(len(subs), cfg.BatchSize)
		eng.touchRows(idx)
		gotLoss := eng.computeStage(idx)
		eng.groupStage(g.NumNodes())
		eng.update(epoch)
		wantLoss := eagerEpoch(ref, subs, weights, idx, cfg, noise, epoch)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("epoch %d: batch loss %v != eager %v", epoch, gotLoss, wantLoss)
		}
		for _, m := range []struct {
			name      string
			got, want mathx.Mat
		}{{"Win", model.Win, ref.Win}, {"Wout", model.Wout, ref.Wout}} {
			for r := 0; r < m.want.NumRows(); r++ {
				got, want := m.got.Row(r), m.want.Row(r)
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("epoch %d: %s row %d coord %d = %v, eager %v",
							epoch, m.name, r, d, got[d], want[d])
					}
				}
			}
		}
	}
}

// TestClipBoundInRunningEngine checks the Eq. (3) sensitivity bound the
// privacy analysis rests on, on the engine's own slots: after every
// gradient stage of a run whose C is small enough that clipping is active,
// each example's clipped Win gradient has norm fIn·‖GIn‖ ≤ C, and its
// clipped Wout part — the k+1 rows fl(c_t·v_I) taken jointly — has norm
// fOut·√(Σ_t‖fl(c_t·v_I)‖²) ≤ C, both up to rounding (1e-12 relative).
func TestClipBoundInRunningEngine(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, xrand.New(4))
	cfg := smallConfig()
	cfg.Clip = 0.01
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
	eng := newEngine(model, subs, weights, cfg, xrand.NewStream(5))
	bound := cfg.Clip * (1 + 1e-12)
	row := make([]float64, cfg.Dim)
	var clippedIn, clippedOut int
	for epoch := 0; epoch < 5; epoch++ {
		idx := rng.SampleWithoutReplacement(len(subs), cfg.BatchSize)
		eng.touchRows(idx)
		eng.computeStage(idx)
		for i := range idx {
			sl := &eng.slots[i]
			if n := sl.fIn * mathx.Norm2(sl.grads.GIn); n > bound {
				t.Fatalf("epoch %d slot %d: clipped Win gradient norm %v > C = %v", epoch, i, n, cfg.Clip)
			}
			var sq float64
			for ti := range sl.grads.Coef {
				sq += mathx.Norm2Sq(sl.grads.OutGrad(ti, row))
			}
			if n := sl.fOut * math.Sqrt(sq); n > bound {
				t.Fatalf("epoch %d slot %d: clipped joint Wout gradient norm %v > C = %v", epoch, i, n, cfg.Clip)
			}
			if sl.fIn < 1 {
				clippedIn++
			}
			if sl.fOut < 1 {
				clippedOut++
			}
		}
		eng.groupStage(g.NumNodes())
		eng.update(epoch)
	}
	if clippedIn == 0 || clippedOut == 0 {
		t.Fatalf("clipping never active (%d Win, %d Wout clipped examples): C too large for the test", clippedIn, clippedOut)
	}
}

// TestRowGroupsMatchesMap drives the grouping through random epochs —
// repeated rows, touched-row counts from one to all — and checks every
// row's contribution list against a map-based reference, the untouched
// rows' nil read the naive update makes, and the first-touch row order.
func TestRowGroupsMatchesMap(t *testing.T) {
	const nRows = 40
	rng := xrand.New(5)
	var grp rowGroups
	for epoch := 0; epoch < 300; epoch++ {
		keys := make([]int32, rng.Intn(3*nRows))
		span := 1 + rng.Intn(nRows)
		for p := range keys {
			keys[p] = int32(rng.Intn(span))
		}
		grp.build(keys, nRows)

		ref := map[int32][]int32{}
		var firstTouch []int32
		for p, r := range keys {
			if _, ok := ref[r]; !ok {
				firstTouch = append(firstTouch, r)
			}
			ref[r] = append(ref[r], int32(p))
		}
		if !slices.Equal(grp.rows, firstTouch) {
			t.Fatalf("epoch %d: rows %v, want %v", epoch, grp.rows, firstTouch)
		}
		for n, r := range grp.rows {
			if got := grp.group(n); !slices.Equal(got, ref[r]) {
				t.Fatalf("epoch %d: row %d contributions %v, want %v", epoch, r, got, ref[r])
			}
		}
		for r := int32(0); r < nRows; r++ {
			if got := grp.of(r); !slices.Equal(got, ref[r]) || (got == nil) != (ref[r] == nil) {
				t.Fatalf("epoch %d: of(%d) = %v, want %v", epoch, r, got, ref[r])
			}
		}
	}
}

// TestRowGroupsBuildNoAlloc pins that regrouping an epoch reuses the
// buffers sized by the first build rather than allocating.
func TestRowGroupsBuildNoAlloc(t *testing.T) {
	keys := make([]int32, 192)
	rng := xrand.New(8)
	for p := range keys {
		keys[p] = int32(rng.Intn(500))
	}
	var grp rowGroups
	grp.build(keys, 500)
	allocs := testing.AllocsPerRun(50, func() {
		grp.build(keys, 500)
	})
	if allocs > 0 {
		t.Errorf("rowGroups.build allocates %.1f objects per call", allocs)
	}
}
