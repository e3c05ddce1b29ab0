package core

import (
	"fmt"
	"testing"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
)

// TestKernelsMatchGoLoops trains every update path twice — with the
// AVX-512 kernels cleared (mathx.UseAVX512 = false), then with them on —
// and requires bit-identical Win and Wout: the non-zero strategy private
// and not, and the naive strategy, at spillConfig's K and at K = 1, 5
// and 8 negatives (for the gradient kernels: one row pair, three, and a
// full group of eight rows plus a padded odd one), at a width the
// kernels cover whole (128) and ones with a tail (130, 132), at one and
// two workers, dense and (for
// the strategies that spill) under a memory budget. On a host without
// AVX-512 only the Go side runs, and the test says so.
func TestKernelsMatchGoLoops(t *testing.T) {
	host := mathx.UseAVX512
	defer func() { mathx.UseAVX512 = host }()
	if !host {
		t.Log("no AVX-512 on this host: only the Go loops run, kernel side skipped")
	}
	g := spillGraph(t)
	for _, tc := range []struct {
		name     string
		strategy Strategy
		private  bool
		spills   bool
	}{
		{"nonzero", StrategyNonZero, true, true},
		{"nonprivate", StrategyNonZero, false, true},
		{"naive", StrategyNaive, true, false},
	} {
		// K = 0 keeps spillConfig's K and four epochs; those cases are
		// named without a K segment.
		for _, shape := range [][2]int{{0, 128}, {0, 132}, {1, 128}, {1, 130}, {1, 132}, {5, 128}, {5, 130}, {5, 132}, {8, 128}, {8, 130}, {8, 132}} {
			cfg := spillConfig()
			cfg.Dim = shape[1]
			kSeg := ""
			if shape[0] > 0 {
				cfg.K, cfg.MaxEpochs = shape[0], 3
				kSeg = fmt.Sprintf("/K=%d", cfg.K)
			} else {
				cfg.MaxEpochs = 4
			}
			cfg.Strategy, cfg.Private = tc.strategy, tc.private
			budgets := []int64{0}
			if tc.spills {
				// Halfway between the dense footprint and a floor of one
				// chunk above each matrix's pin floor: the budgets (and
				// case names) these cases have always trained at, kept
				// fixed when MinMemoryBudget dropped its spare chunks.
				chunk := int64(mathx.SpillChunkRows(cfg.Dim)) * int64(cfg.Dim) * 8
				floor := cfg.MinMemoryBudget(g.NumNodes()) + 2*chunk
				budgets = append(budgets, (floor+cfg.DenseStateBytes(g.NumNodes()))/2)
			}
			for _, budget := range budgets {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%s%s/dim=%d/budget=%d/workers=%d", tc.name, kSeg, cfg.Dim, budget, workers)
					t.Run(name, func(t *testing.T) {
						cfg.MemoryBudget, cfg.Workers = budget, workers
						var digests [][2]uint64
						for _, kernels := range []bool{false, true} {
							if kernels && !host {
								break
							}
							mathx.UseAVX512 = kernels
							res, err := Train(g, proximity.NewDegree(g), cfg)
							if err != nil {
								t.Fatal(err)
							}
							if _, spilled := res.Model.Win.(*mathx.SpillMatrix); spilled != (budget > 0) {
								t.Fatalf("spill tier %v, want %v", spilled, budget > 0)
							}
							digests = append(digests, [2]uint64{mathx.DigestMat(res.Model.Win), mathx.DigestMat(res.Model.Wout)})
							res.CloseSpill()
						}
						if len(digests) == 2 && digests[0] != digests[1] {
							t.Errorf("Win/Wout digests %x with the Go loops, %x with the kernels", digests[0], digests[1])
						}
					})
				}
			}
		}
	}
}
