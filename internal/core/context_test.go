package core

import (
	"bytes"
	"context"
	"testing"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

// quickCfg mirrors the golden test's reduced-scale paper settings.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.BatchSize = 32
	cfg.MaxEpochs = 25
	cfg.Seed = 1
	return cfg
}

func quickGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return graph.BarabasiAlbert(60, 2, xrand.New(42))
}

// TestTrainContextMatchesTrain pins the zero-Hooks equivalence: TrainContext
// with a background context is Train, bit for bit.
func TestTrainContextMatchesTrain(t *testing.T) {
	g := quickGraph(t)
	for _, private := range []bool{true, false} {
		cfg := quickCfg()
		cfg.Private = private
		want, err := Train(g, proximity.NewDeepWalk(g), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if fnv1a64(got.Embedding().Data) != fnv1a64(want.Embedding().Data) {
			t.Fatalf("private=%v: TrainContext diverges from Train", private)
		}
	}
}

// TestEpochHookExactlyOnce verifies the hook contract at several worker
// counts: exactly one call per completed epoch, in order, with a loss that
// matches the recorded history.
func TestEpochHookExactlyOnce(t *testing.T) {
	g := quickGraph(t)
	for _, workers := range []int{0, 1, 4} {
		cfg := quickCfg()
		cfg.Workers = workers
		var stats []EpochStats
		res, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{
			Epoch: func(s EpochStats) { stats = append(stats, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != res.Epochs {
			t.Fatalf("workers=%d: %d hook calls for %d epochs", workers, len(stats), res.Epochs)
		}
		for i, s := range stats {
			if s.Epoch != i {
				t.Fatalf("workers=%d: hook %d reported epoch %d", workers, i, s.Epoch)
			}
			if s.Loss != res.LossHistory[i] {
				t.Fatalf("workers=%d: hook %d loss %g, history %g", workers, i, s.Loss, res.LossHistory[i])
			}
		}
		last := stats[len(stats)-1]
		if last.EpsSpent != res.EpsilonSpent || last.DeltaSpent != res.DeltaSpent {
			t.Fatalf("workers=%d: final hook spend (%g, %g) vs result (%g, %g)",
				workers, last.EpsSpent, last.DeltaSpent, res.EpsilonSpent, res.DeltaSpent)
		}
	}
}

// cancelAfter returns a context canceled by the epoch hook once `epochs`
// epochs completed, plus the Hooks carrying that hook.
func cancelAfter(epochs int) (context.Context, Hooks) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, Hooks{Epoch: func(s EpochStats) {
		if s.Epoch+1 >= epochs {
			cancel()
		}
	}}
}

// TestCancelResumeGolden is the acceptance contract of the Session redesign:
// canceling at an interior epoch and resuming the returned checkpoint to
// completion reproduces the uninterrupted run's embedding bit for bit, at
// workers ∈ {1, 4}, for private and non-private runs, including through a
// serialization round trip.
func TestCancelResumeGolden(t *testing.T) {
	g := quickGraph(t)
	for _, private := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			cfg := quickCfg()
			cfg.Private = private
			cfg.Workers = workers

			full, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			want := fnv1a64(full.Embedding().Data)

			ctx, hooks := cancelAfter(7)
			part, err := TrainContext(ctx, g, proximity.NewDeepWalk(g), cfg, hooks)
			if err != nil {
				t.Fatal(err)
			}
			if part.Stopped != StopCanceled {
				t.Fatalf("private=%v workers=%d: partial run stopped %v, want %v",
					private, workers, part.Stopped, StopCanceled)
			}
			if part.Epochs != 7 {
				t.Fatalf("private=%v workers=%d: canceled after %d epochs, want 7", private, workers, part.Epochs)
			}
			if part.Checkpoint == nil {
				t.Fatalf("private=%v workers=%d: canceled run carries no checkpoint", private, workers)
			}

			// Round-trip the checkpoint through its wire format.
			var buf bytes.Buffer
			if err := part.Checkpoint.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			ck, err := decodeBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}

			// Resume at a DIFFERENT worker count than the original leg:
			// the contract says neither leg's count matters.
			cfg.Workers = 5 - workers
			resumed, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{Resume: ck})
			if err != nil {
				t.Fatal(err)
			}
			if got := fnv1a64(resumed.Embedding().Data); got != want {
				t.Fatalf("private=%v workers=%d: resumed hash %#x, uninterrupted %#x",
					private, workers, got, want)
			}
			if resumed.Epochs != full.Epochs || resumed.Stopped != full.Stopped {
				t.Fatalf("private=%v workers=%d: resumed (epochs=%d, stopped=%v) vs full (%d, %v)",
					private, workers, resumed.Epochs, resumed.Stopped, full.Epochs, full.Stopped)
			}
			if len(resumed.LossHistory) != len(full.LossHistory) {
				t.Fatalf("resumed loss history has %d entries, want %d",
					len(resumed.LossHistory), len(full.LossHistory))
			}
			for i := range full.LossHistory {
				if resumed.LossHistory[i] != full.LossHistory[i] {
					t.Fatalf("loss history diverges at epoch %d: %g vs %g",
						i, resumed.LossHistory[i], full.LossHistory[i])
				}
			}
		}
	}
}

// TestResumeChainedCheckpoints cancels twice — resuming a resumed run — and
// still expects the uninterrupted hash, exercising checkpoint capture on a
// run that itself started from a checkpoint.
func TestResumeChainedCheckpoints(t *testing.T) {
	g := quickGraph(t)
	cfg := quickCfg()
	full, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := fnv1a64(full.Embedding().Data)

	ctx, hooks := cancelAfter(4)
	leg1, err := TrainContext(ctx, g, proximity.NewDeepWalk(g), cfg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, hooks = cancelAfter(11)
	hooks.Resume = leg1.Checkpoint
	leg2, err := TrainContext(ctx, g, proximity.NewDeepWalk(g), cfg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if leg2.Epochs != 11 || leg2.Stopped != StopCanceled {
		t.Fatalf("leg2 ran %d epochs (stopped %v), want 11 canceled", leg2.Epochs, leg2.Stopped)
	}
	leg3, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{Resume: leg2.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv1a64(leg3.Embedding().Data); got != want {
		t.Fatalf("three-leg run hash %#x, uninterrupted %#x", got, want)
	}
}

// TestPeriodicCheckpoints verifies the CheckpointEvery cadence and that a
// mid-run periodic snapshot resumes to the uninterrupted result.
func TestPeriodicCheckpoints(t *testing.T) {
	g := quickGraph(t)
	cfg := quickCfg()
	var cks []*Checkpoint
	full, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{
		CheckpointEvery: 10,
		Checkpoint:      func(ck *Checkpoint) { cks = append(cks, ck) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots at every 10th epoch plus the final boundary (the budget
	// rule stops this run before MaxEpochs, at an off-cadence epoch).
	var want []int
	for e := 10; e < full.Epochs; e += 10 {
		want = append(want, e)
	}
	want = append(want, full.Epochs)
	epochs := make([]int, len(cks))
	for i, ck := range cks {
		epochs[i] = ck.Epoch
	}
	if len(epochs) != len(want) {
		t.Fatalf("checkpoint epochs %v, want %v", epochs, want)
	}
	for i := range want {
		if epochs[i] != want[i] {
			t.Fatalf("checkpoint epochs %v, want %v", epochs, want)
		}
	}
	if full.Checkpoint != cks[len(cks)-1] {
		t.Fatalf("Result.Checkpoint is not the final snapshot")
	}
	resumed, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{Resume: cks[0]})
	if err != nil {
		t.Fatal(err)
	}
	if fnv1a64(resumed.Embedding().Data) != fnv1a64(full.Embedding().Data) {
		t.Fatalf("resume from periodic snapshot diverges from uninterrupted run")
	}
	// Resuming the FINAL checkpoint of a budget-stopped run must not buy
	// extra epochs: the restored accountant already satisfies δ̂ ≥ δ.
	again, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{Resume: full.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if again.Epochs != full.Epochs || again.Stopped != StopBudget {
		t.Fatalf("resume of a finished run trained to epoch %d (stopped %v), want %d (budget)",
			again.Epochs, again.Stopped, full.Epochs)
	}
	if fnv1a64(again.Embedding().Data) != fnv1a64(full.Embedding().Data) {
		t.Fatalf("resume of a finished run changed the embedding")
	}
}

// TestResumeValidation exercises the checkpoint guards: wrong graph, wrong
// config, and corrupted shape must all be rejected.
func TestResumeValidation(t *testing.T) {
	g := quickGraph(t)
	cfg := quickCfg()
	ctx, hooks := cancelAfter(3)
	part, err := TrainContext(ctx, g, proximity.NewDeepWalk(g), cfg, hooks)
	if err != nil {
		t.Fatal(err)
	}
	ck := part.Checkpoint

	other := graph.BarabasiAlbert(61, 2, xrand.New(43))
	if _, err := TrainContext(context.Background(), other, proximity.NewDeepWalk(other), cfg, Hooks{Resume: ck}); err == nil {
		t.Fatal("resume on a different graph succeeded")
	}
	badCfg := cfg
	badCfg.Sigma = 6
	if _, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), badCfg, Hooks{Resume: ck}); err == nil {
		t.Fatal("resume under a different sigma succeeded")
	}
	// Raising MaxEpochs is explicitly allowed: it extends the run (here
	// the budget rule still ends training at the same epoch it would end
	// an uninterrupted run).
	full, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	extCfg := cfg
	extCfg.MaxEpochs = cfg.MaxEpochs + 5
	ext, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), extCfg, Hooks{Resume: ck})
	if err != nil {
		t.Fatalf("resume with a larger MaxEpochs: %v", err)
	}
	if ext.Epochs != full.Epochs {
		t.Fatalf("extended run finished at %d epochs, want %d", ext.Epochs, full.Epochs)
	}
	corrupt := *ck
	corrupt.Win = corrupt.Win[:len(corrupt.Win)-1]
	if _, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{Resume: &corrupt}); err == nil {
		t.Fatal("resume from a truncated checkpoint succeeded")
	}
}

// TestCancelBeforeFirstEpoch: an already-canceled context still returns a
// valid (zero-epoch) result whose checkpoint resumes the whole run.
func TestCancelBeforeFirstEpoch(t *testing.T) {
	g := quickGraph(t)
	cfg := quickCfg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := TrainContext(ctx, g, proximity.NewDeepWalk(g), cfg, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if part.Epochs != 0 || part.Stopped != StopCanceled || part.Checkpoint == nil {
		t.Fatalf("pre-canceled run: epochs=%d stopped=%v checkpoint=%v",
			part.Epochs, part.Stopped, part.Checkpoint != nil)
	}
	full, err := Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := TrainContext(context.Background(), g, proximity.NewDeepWalk(g), cfg, Hooks{Resume: part.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if fnv1a64(resumed.Embedding().Data) != fnv1a64(full.Embedding().Data) {
		t.Fatal("resume from the zero-epoch checkpoint diverges from a fresh run")
	}
}
