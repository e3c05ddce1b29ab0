// The comparison-grid walkthrough: reproduce the shape of the paper's
// evaluation tables — methods down the rows, privacy budgets across the
// columns, mean ± std over repeated seeds — with one declarative request.
// A SweepSpec names the axes (graphs × methods × ε × seeds) and the
// metric; SubmitSweep expands it into per-cell training jobs behind the
// service's priority queue, so every cell deduplicates against the job
// table and artifact store like any other submission. Resubmitting the
// same grid therefore re-serves the finished sweep without training a
// single cell — the second half of this example demonstrates exactly
// that.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"seprivgemb"
	"seprivgemb/internal/sweep"
)

func main() {
	svc := seprivgemb.NewService(2)
	defer svc.Close()

	// The power-grid simulation at 10% scale, the paper's method against
	// two baselines, two privacy budgets, two seeds: 12 cells. Structural
	// equivalence preservation scores each cell; every omitted
	// hyperparameter takes the paper default.
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
	fmt.Printf("sweep %s: %d cells\n", sw.ID(), len(sw.Status().Cells))

	// Watch the grid fill in.
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
watch:
	for {
		select {
		case <-sw.Done():
			break watch
		case <-tick.C:
			c := sw.Status().Counts
			fmt.Printf("  queued %d  running %d  done %d  failed %d\n",
				c.Queued, c.Running, c.Done, c.Failed)
		}
	}
	res, err := sw.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// The aggregate is the paper's table shape: one row per
	// (graph, method, ε) group, mean ± std over the seed axis.
	fmt.Printf("\n%s\n", sweep.RenderMarkdown(res.Table))

	// Resubmit the identical grid: the canonicalized axes hash to the
	// same sweep ID, so the service hands back the finished sweep —
	// no queueing, no training, the same table.
	again, err := svc.SubmitSweep(grid)
	if err != nil {
		log.Fatal(err)
	}
	res2, ok := again.Result()
	if !ok {
		log.Fatal("resubmitted sweep should already be complete")
	}
	fmt.Printf("resubmitted: sweep %s already %s, table served from the first run\n",
		again.ID(), res2.Status)
}
