package service

import (
	"bytes"
	"context"
	"log"
	"os"
	"strings"
	"testing"

	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/xrand"
)

// TestSweepCellScoringPanicFailsCell: a panic while a sweep scores one
// cell fails that cell with the panic's text and logs its stack; the
// sweep's other cell is scored, the sweep completes, and the service goes
// on to train the next job.
//
// The panic is a real one: the first sweep trains a spilled cell, whose
// spill files the test then closes. A second sweep over the same cell
// (plus a fresh seed) differs only in its sampled StrucEqu budget, so its
// first cell deduplicates onto the finished job, and scoring it reads a
// closed spill tier — Result.Embedding panics.
func TestSweepCellScoringPanicFailsCell(t *testing.T) {
	var logged bytes.Buffer // written before the sweep's done closes, read after
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	s := New(Options{MaxWorkers: 2})
	defer s.Close()

	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	edges := make([][2]int, 0, big.NumEdges())
	for _, e := range big.Edges() {
		edges = append(edges, [2]int{int(e.U), int(e.V)})
	}
	cfg := core.DefaultConfig()
	cfg.Dim, cfg.K, cfg.BatchSize = 128, 2, 8
	sp := &spec.SweepSpec{
		Graphs:    []spec.GraphSource{{Inline: &spec.InlineSource{Nodes: big.NumNodes(), Edges: edges}}},
		Methods:   []string{"sepriv"},
		Epsilons:  []float64{1},
		Seeds:     []uint64{1},
		Proximity: "degree",
		Config: spec.ConfigSpec{Dim: cfg.Dim, K: cfg.K, BatchSize: cfg.BatchSize, MaxEpochs: 2,
			MemoryBudget: cfg.MinMemoryBudget(big.NumNodes())},
		Eval: spec.EvalSpec{SamplePairs: 1000},
	}
	sw, err := s.SubmitSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	first := waitSweep(t, sw)
	if first.Counts.Done != 1 {
		t.Fatalf("first sweep: counts %+v, want its one cell done", first.Counts)
	}
	j, ok := s.JobByID(first.Cells[0].JobID)
	if !ok {
		t.Fatalf("cell job %s not in the job table", first.Cells[0].JobID)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// train took the digest before the job finished, so closing the tier
	// leaves the job's hash readable.
	res.CloseSpill()
	if _, ok := j.EmbeddingHash(); !ok {
		t.Fatal("finished cell job has no embedding hash")
	}

	sp.Seeds = []uint64{1, 2}
	sp.Eval.SamplePairs = 2000
	sw2, err := s.SubmitSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	second := waitSweep(t, sw2)
	if second.Status != "done" || second.Counts.Done != 1 || second.Counts.Failed != 1 {
		t.Fatalf("second sweep: status %q counts %+v, want one cell done and one failed", second.Status, second.Counts)
	}
	for _, c := range second.Cells {
		if c.JobID == j.ID() && (c.Status != cellFailed || !strings.Contains(c.Error, "used after Close")) {
			t.Fatalf("closed cell: status %q error %q, want failed with the panic's text", c.Status, c.Error)
		}
	}
	if out := logged.String(); !strings.Contains(out, "used after Close") || !strings.Contains(out, "(*Cell).Evaluate(") {
		t.Fatalf("log does not hold the scoring panic and its stack:\n%s", out)
	}

	g := testGraph()
	next, err := s.Submit(g, proximity.NewDegree(g), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(context.Background()); err != nil || next.Status() != StatusDone {
		t.Fatalf("job after the scoring panic: status %v, err %v", next.Status(), err)
	}
}

// TestUnreadableSpillTierFailsJobWithoutStore: a service with no artifact
// store takes the digest of a finished job's Win in train, under the
// job's recover. A spilled job whose tier can no longer be read (closed
// here, once training returns) fails there with the panic's text,
// instead of panicking in the terminal event after the recover and
// ending the process; the service goes on to train the next job.
func TestUnreadableSpillTierFailsJobWithoutStore(t *testing.T) {
	var logged bytes.Buffer // written before the job's done closes, read after
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	s.afterTrain = func(res *core.Result) { res.CloseSpill() }

	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	cfg := testCfg()
	cfg.Dim, cfg.K, cfg.BatchSize, cfg.MaxEpochs = 128, 2, 8, 2
	cfg.MemoryBudget = cfg.MinMemoryBudget(big.NumNodes())
	j, err := s.Submit(big, proximity.NewDegree(big), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "used after Close") {
		t.Fatalf("job with a closed spill tier: err = %v, want the digest's panic", err)
	}
	if j.Status() != StatusFailed {
		t.Fatalf("status = %v, want failed", j.Status())
	}
	if _, ok := j.EmbeddingHash(); ok {
		t.Error("failed job reports an embedding hash")
	}

	s.afterTrain = nil // the job's train has returned: done closed after it
	g := testGraph()
	next, err := s.Submit(g, proximity.NewDegree(g), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(context.Background()); err != nil || next.Status() != StatusDone {
		t.Fatalf("job after the spill failure: status %v, err %v", next.Status(), err)
	}
}
