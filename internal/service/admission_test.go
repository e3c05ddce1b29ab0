package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

// TestMaxTrainingBytesAdmission: the per-job memory cap rejects jobs whose
// resident training state would exceed it — with an error that names the
// memoryBudget remedy — and admits the same spec once a budget under the
// cap is set.
func TestMaxTrainingBytesAdmission(t *testing.T) {
	g := testGraph()
	cfg := testCfg()
	dense := cfg.DenseStateBytes(g.NumNodes())

	// A cap below the dense footprint AND below the minimum spill budget:
	// the job is unconditionally too big, and the error must not promise a
	// budget that validation would then reject.
	s := New(Options{MaxWorkers: 1, MaxTrainingBytes: dense - 1})
	defer s.Close()
	_, err := s.Submit(g, proximity.NewDegree(g), cfg)
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("oversized job: err = %v, want ErrInvalidSpec", err)
	}
	if min := cfg.MinMemoryBudget(g.NumNodes()); min > dense-1 {
		if strings.Contains(err.Error(), "memoryBudget") {
			t.Errorf("error suggests a memoryBudget no budget can satisfy: %v", err)
		}
	}

	// A cap the spill tier can satisfy (needs a graph big enough that the
	// pinned working set fits under the dense footprint): rejection names
	// the remedy, and a budgeted resubmission of the same spec is admitted
	// and completes.
	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	bigCfg := core.DefaultConfig()
	bigCfg.Dim = 128
	bigCfg.K = 2
	bigCfg.BatchSize = 8
	bigCfg.MaxEpochs = 2
	bigCfg.Seed = 1
	min := bigCfg.MinMemoryBudget(big.NumNodes())
	bigDense := bigCfg.DenseStateBytes(big.NumNodes())
	if bigDense <= min {
		t.Fatalf("test setup: dense footprint %d not above minimum budget %d", bigDense, min)
	}
	s2 := New(Options{MaxWorkers: 1, MaxTrainingBytes: min})
	defer s2.Close()
	_, err = s2.Submit(big, proximity.NewDegree(big), bigCfg)
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("uncapped dense job: err = %v, want ErrInvalidSpec", err)
	}
	if !strings.Contains(err.Error(), "memoryBudget") {
		t.Errorf("rejection does not name the memoryBudget remedy: %v", err)
	}
	budgeted := bigCfg
	budgeted.MemoryBudget = min
	j, err := s2.Submit(big, proximity.NewDegree(big), budgeted)
	if err != nil {
		t.Fatalf("budgeted job rejected: %v", err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatalf("budgeted job failed: %v", err)
	}

	// Zero cap disables admission control entirely.
	s3 := New(Options{MaxWorkers: 1})
	defer s3.Close()
	if _, err := s3.Submit(g, proximity.NewDegree(g), cfg); err != nil {
		t.Fatalf("uncapped server rejected a dense job: %v", err)
	}
}

// TestBaselineRejectsMemoryBudget: the spill tier is sepriv-only; a spec
// that asks a baseline for a budget is a 400 at submit, not a training
// failure.
func TestBaselineRejectsMemoryBudget(t *testing.T) {
	g := testGraph()
	cfg := testCfg()
	cfg.MemoryBudget = 1 << 20
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	_, err := s.SubmitMethod("gap", g, proximity.NewDegree(g), cfg)
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("baseline with memory budget: err = %v, want ErrInvalidSpec", err)
	}
	if !strings.Contains(err.Error(), "memory budget") {
		t.Errorf("rejection does not explain the budget restriction: %v", err)
	}
}

// TestDefaultMethodConfigRejectedAtSubmit: a config the core trainer
// would refuse is a 400 on the Go API too, not a job that fails at
// training time.
func TestDefaultMethodConfigRejectedAtSubmit(t *testing.T) {
	g := testGraph()
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	naive := testCfg()
	naive.Strategy = core.StrategyNaive
	naive.MemoryBudget = 1024
	tiny := testCfg()
	tiny.MemoryBudget = 1
	batch := testCfg()
	batch.BatchSize = g.NumEdges() + 1
	for name, cfg := range map[string]core.Config{
		"naive with a memory budget": naive,
		"one-byte memory budget":     tiny,
		"batch above |E|":            batch,
	} {
		if _, err := s.Submit(g, proximity.NewDegree(g), cfg); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: err = %v, want ErrInvalidSpec", name, err)
		}
	}
}
