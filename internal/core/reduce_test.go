package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// add is the eager reference accumulate the reduce stage replaced:
// claim the row, copy g over a first-touch vector, AXPY it in after.
func (a *rowAccumulator) add(row int32, g []float64) {
	dst, first := a.claim(row)
	if first {
		copy(dst, g)
		return
	}
	mathx.AXPY(1, g, dst)
}

// TestReduceStageMatchesEagerClip pins the deferred-clip-factor contract:
// computeStage + reduceStage must fill the accumulators bit-identically to
// the pre-PR-7 eager path — per-example Gradients, in-place dp.Clip and
// clipJoint, then batch-order adds — at thresholds where clipping bites on
// every example, on none, and when disabled.
func TestReduceStageMatchesEagerClip(t *testing.T) {
	g := graph.BarabasiAlbert(50, 3, xrand.New(21))
	for _, clip := range []float64{1e-4, 10, 0} {
		t.Run(fmt.Sprintf("clip=%g", clip), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Clip = clip
			if clip == 0 {
				cfg.Private = false
			}
			rng := xrand.New(cfg.Seed)
			subs, err := GenerateSubgraphsWorkers(g, cfg.K, cfg.NegSampling, rng, 1)
			if err != nil {
				t.Fatal(err)
			}
			weights := make([]float64, len(subs))
			wrng := xrand.New(3)
			for i := range weights {
				weights[i] = 0.5 + wrng.Float64()
			}
			model := skipgram.New(g.NumNodes(), cfg.Dim, rng)
			idx := rng.SampleWithoutReplacement(len(subs), cfg.BatchSize)

			eng := newEngine(model, subs, weights, cfg, xrand.Stream{})
			defer eng.close()
			n := g.NumNodes()
			accIn := newRowAccumulator(cfg.Dim, cfg.BatchSize, n)
			accOut := newRowAccumulator(cfg.Dim, (cfg.K+1)*cfg.BatchSize, n)
			gotLoss := eng.computeStage(idx)
			eng.reduceStage(idx, accIn, accOut)

			// Eager reference path.
			refIn := newRowAccumulator(cfg.Dim, cfg.BatchSize, n)
			refOut := newRowAccumulator(cfg.Dim, (cfg.K+1)*cfg.BatchSize, n)
			var grads skipgram.Grads
			var wantLoss float64
			for _, si := range idx {
				s := subs[si]
				ex := skipgram.Example{I: s.I, J: s.J, Negs: s.Negs, W: weights[si]}
				wantLoss += model.Loss(ex)
				model.Gradients(ex, &grads)
				if cfg.Clip > 0 {
					dp.Clip(grads.GIn, cfg.Clip)
					clipJoint(grads.GOut, cfg.Clip)
				}
				refIn.add(int32(grads.InRow), grads.GIn)
				for ti, row := range grads.OutRows {
					refOut.add(row, grads.GOut[ti])
				}
			}
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Errorf("batch loss %v != eager %v", gotLoss, wantLoss)
			}
			compare := func(label string, got, want *rowAccumulator) {
				t.Helper()
				if len(got.touched) != len(want.touched) {
					t.Fatalf("%s: %d touched rows, eager %d", label, len(got.touched), len(want.touched))
				}
				for _, r := range want.touched {
					wantVec, gotVec := want.row(r), got.row(r)
					if gotVec == nil {
						t.Fatalf("%s: row %d missing", label, r)
					}
					for d := range wantVec {
						if math.Float64bits(gotVec[d]) != math.Float64bits(wantVec[d]) {
							t.Fatalf("%s: row %d coord %d = %v, eager %v",
								label, r, d, gotVec[d], wantVec[d])
						}
					}
				}
			}
			compare("accIn", accIn, refIn)
			compare("accOut", accOut, refOut)
		})
	}
}

// TestSortedRowsScratchReuse pins that repeated sortedRows calls on one
// accumulator sort its touched list in place rather than allocating.
func TestSortedRowsScratchReuse(t *testing.T) {
	acc := newRowAccumulator(4, 8, 8)
	g := []float64{1, 2, 3, 4}
	for r := int32(7); r >= 0; r-- {
		acc.add(r, g)
	}
	first := acc.sortedRows()
	for i, r := range first {
		if int32(i) != r {
			t.Fatalf("sortedRows[%d] = %d, want ascending", i, r)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		rows := acc.sortedRows()
		if len(rows) != 8 {
			t.Fatal("wrong length")
		}
	})
	if allocs > 0 {
		t.Errorf("sortedRows allocates %.1f objects per call", allocs)
	}
}

// TestRowAccumulatorMatchesMap drives the slot-table accumulator and a
// map-based reference through the same random epochs — repeated rows,
// resets, more touched rows than pre-sized vectors — and after every add
// compares the full-row read the naive strategy makes (nil for an
// untouched row) and the sorted touched list.
func TestRowAccumulatorMatchesMap(t *testing.T) {
	const dim, nRows, maxRows = 3, 40, 8
	rng := xrand.New(5)
	acc := newRowAccumulator(dim, maxRows, nRows)
	ref := map[int32][]float64{}
	g := make([]float64, dim)
	for op := 0; op < 3000; op++ {
		if rng.Intn(50) == 0 {
			acc.reset()
			clear(ref)
			continue
		}
		row := int32(rng.Intn(nRows))
		f := rng.Float64()
		rng.NormalVec(g, 1)
		acc.addScaled(row, f, g)
		if want, ok := ref[row]; ok {
			for d, v := range g {
				p := f * v
				want[d] += p
			}
		} else {
			want = make([]float64, dim)
			for d, v := range g {
				want[d] = f * v
			}
			ref[row] = want
		}

		for r := int32(0); r < nRows; r++ {
			got, want := acc.row(r), ref[r]
			if (got == nil) != (want == nil) {
				t.Fatalf("op %d: row %d read %v, reference %v", op, r, got, want)
			}
			for d := range want {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("op %d: row %d coord %d = %v, reference %v", op, r, d, got[d], want[d])
				}
			}
		}
		keys := slices.Sorted(maps.Keys(ref))
		if got := acc.sortedRows(); !slices.Equal(got, keys) {
			t.Fatalf("op %d: sortedRows %v, reference %v", op, got, keys)
		}
	}
}
