package core

import (
	"context"
	"fmt"
	"time"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// StopReason records why a training run ended.
type StopReason int

const (
	// StopCompleted: the run finished all MaxEpochs epochs.
	StopCompleted StopReason = iota
	// StopBudget: the δ̂ ≥ δ rule (Algorithm 2 line 10) ended training.
	StopBudget
	// StopCanceled: the context was canceled or its deadline passed; the
	// Result holds the best-so-far model and a resumable Checkpoint.
	StopCanceled
)

// String implements fmt.Stringer.
func (s StopReason) String() string {
	switch s {
	case StopCompleted:
		return "completed"
	case StopBudget:
		return "budget"
	case StopCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// StageTimings breaks a run's wall-clock down by pipeline stage: the two
// one-shot setup stages (Algorithm 1's subgraphs, then the structure-
// preference weight fill) and the three per-epoch stages of the engine.
// The per-stage clocks are cumulative over the run so far, so Total()
// plus hook overhead approximates EpochStats.Elapsed; the accountant
// step, also outside Total(), adds one cached vector per epoch and is
// negligible. A resumed run counts from the resume.
type StageTimings struct {
	// Subgraphs is Algorithm 1's subgraph pass (line 2 of Algorithm 2).
	Subgraphs time.Duration
	// EdgeWeights is the structure-preference fill (line 1 of Algorithm
	// 2): the proximity evaluated on every subgraph's positive pair, plus
	// the mean-1 rescale.
	EdgeWeights time.Duration
	// Gradients is the per-epoch forward+backward stage, plus what
	// precedes it each epoch: batch sampling and resolving the touched
	// rows' views. On the dense tier those are negligible next to the
	// gradient math. On the spill tier the views come from pinning, so
	// this clock also holds the pins' preads and the write-back pwrites
	// of the chunks they evict, which can outweigh the gradient math:
	// read it as gradients plus spill faults.
	Gradients time.Duration
	// Reduce is the grouping pass that lists each touched row's
	// per-example contributions in batch order; the sums themselves are
	// replayed inside Update.
	Reduce time.Duration
	// Update is the replay-and-apply stage: each touched row's batch
	// gradient summed from its contributions, index-addressed DP noise,
	// and the SGD writes to Wout and Win. On the spill tier it also holds
	// the release of the epoch's pins.
	Update time.Duration
}

// Total returns the summed stage time.
func (s StageTimings) Total() time.Duration {
	return s.Subgraphs + s.EdgeWeights + s.Gradients + s.Reduce + s.Update
}

// EpochStats is the per-epoch observation handed to an EpochHook: the loss
// and privacy spend of the epoch that just completed.
type EpochStats struct {
	// Epoch is the zero-based index of the completed epoch.
	Epoch int
	// Loss is the epoch's average batch loss.
	Loss float64
	// EpsSpent is the ε certified at the target δ after this epoch
	// (zero for non-private runs), and DeltaSpent the δ̂ at the target ε.
	EpsSpent   float64
	DeltaSpent float64
	// Elapsed is the wall-clock time since TrainContext was entered (a
	// resumed run counts from the resume, not the original start).
	Elapsed time.Duration
	// Stages is the per-stage wall-clock breakdown, cumulative since
	// TrainContext was entered.
	Stages StageTimings
}

// EpochHook observes training progress. Hook ordering guarantees
// (DESIGN.md §8): the hook runs synchronously on the training goroutine,
// exactly once per completed epoch, in epoch order, after the epoch's
// updates and accountant step and before the next epoch's sampling — so a
// hook that reads the accountant via the stats always sees the spend of
// the epoch it was called for. A slow hook therefore stalls training;
// callers needing isolation should hand off to their own goroutine.
type EpochHook func(EpochStats)

// Hooks configures the observability and durability of a TrainContext run.
// The zero value reproduces plain Train exactly.
type Hooks struct {
	// Epoch, when non-nil, is invoked after every completed epoch.
	Epoch EpochHook
	// CheckpointEvery > 0 snapshots training after every CheckpointEvery-th
	// epoch (by absolute epoch number) and once more when the run stops.
	CheckpointEvery int
	// Checkpoint, when non-nil, receives every snapshot (including the
	// final one). The checkpoint is deep-copied and immutable; the hook is
	// called on the training goroutine, after the same epoch's Epoch hook.
	// Setting Checkpoint without CheckpointEvery emits only the final
	// snapshot. A snapshot captured after a spill-tier I/O failure is
	// never delivered: the run fails with the error instead.
	Checkpoint func(*Checkpoint)
	// Resume, when non-nil, restores the run from a checkpoint instead of
	// starting at epoch 0. The config and graph must match the recorded
	// run (Config.Workers and Config.MaxEpochs may differ); the resumed
	// run is bit-identical to one that never stopped.
	Resume *Checkpoint
}

// fillWeights evaluates the structure preference on every subgraph's
// oriented positive pair (proximity.PairWeights: one row build per
// distinct source for the row-building measures, index-addressed writes),
// bit-identical to the serial per-pair At pass at any worker count.
func fillWeights(prox proximity.Proximity, subs []Subgraph, workers int) []float64 {
	pairs := make([]proximity.Pair, len(subs))
	for k, s := range subs {
		pairs[k] = proximity.Pair{I: s.I, J: s.J}
	}
	return proximity.PairWeights(prox, pairs, workers)
}

// TrainContext is the context-aware form of Train (Algorithm 2): identical
// numerics, plus cancellation, per-epoch observation, and checkpoint/resume.
//
// Cancellation is honored at epoch granularity: the context is checked
// before each epoch, and a canceled run returns the best-so-far *Result —
// not an error — with Stopped == StopCanceled, Epochs recording how many
// epochs ran, and Result.Checkpoint holding a snapshot that resumes the run
// bit-identically (pass it back via Hooks.Resume). An error return is
// reserved for invalid configs, graphs, or checkpoints, and for a failed
// read or write of the spill tier's backing file (wrapping a
// *mathx.SpillError).
//
// The zero Hooks value makes TrainContext(context.Background(), ...)
// equivalent to Train(...) bit for bit.
func TrainContext(ctx context.Context, g *graph.Graph, prox proximity.Proximity, cfg Config, hooks Hooks) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(g); err != nil {
		return nil, err
	}
	// Reject a mismatched checkpoint before the O(|E|) setup below —
	// subgraph generation and the proximity weight scan can cost minutes
	// on large graphs with lazy measures, and an invalid resume must not
	// pay for them.
	if hooks.Resume != nil {
		if err := hooks.Resume.validateFor(g, cfg); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var stages StageTimings
	rng := xrand.New(cfg.Seed)

	// Line 2: divide the graph into disjoint subgraphs, sharded across
	// cfg.Workers with per-edge index-addressed randomness. On resume this
	// replays identically — subgraphs are a pure function of cfg.Seed.
	subs, err := GenerateSubgraphsWorkers(g, cfg.K, cfg.NegSampling, rng, cfg.Workers)
	if err != nil {
		return nil, err
	}
	stages.Subgraphs = time.Since(start)
	// Line 1: compute the node proximity, evaluated on each subgraph's
	// oriented positive pair (p_ij is direction-sensitive for random-walk
	// measures) and sharded across cfg.Workers — for row-lazy measures
	// (Katz, PageRank) each distinct source's row is built once, and those
	// row builds dominate setup time on large graphs. Weights are rescaled
	// to mean 1 over the observed edges: raw magnitudes differ by orders
	// of magnitude across measures (e.g. row-stochastic DeepWalk entries
	// are O(1/d)), and a constant rescale of P only shifts the Theorem 3
	// optimum log(p_ij/(k·min(P))) by a constant while keeping the
	// gradient scale — and hence the signal-to-noise ratio of the private
	// updates — comparable across structure preferences. The sum runs
	// serially in index order after the fill, so the rescale factor is
	// bit-identical at any worker count.
	fillStart := time.Now()
	weights := fillWeights(prox, subs, cfg.Workers)
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	if wsum > 0 {
		mathx.Scale(float64(len(weights))/wsum, weights)
	}
	stages.EdgeWeights = time.Since(fillStart)
	// Line 3: initialize the weight matrices — dense, or spill-backed when
	// MemoryBudget bounds residency below the dense footprint (DESIGN.md
	// §15), split between Win and Wout by Config.spillShares. A resumed
	// run re-draws the initialization (keeping the RNG aligned with the
	// original stream) and then overwrites both matrices and the RNG from
	// the checkpoint.
	var model *skipgram.Model
	if n := g.NumNodes(); cfg.spillActive(n) {
		winBudget, woutBudget := cfg.spillShares(n)
		spillWin, err := mathx.NewSpillMatrix(n, cfg.Dim, winBudget, "")
		if err != nil {
			return nil, fmt.Errorf("core: spill tier for Win: %w", err)
		}
		spillWout, err := mathx.NewSpillMatrix(n, cfg.Dim, woutBudget, "")
		if err != nil {
			spillWin.Close()
			return nil, fmt.Errorf("core: spill tier for Wout: %w", err)
		}
		model = skipgram.NewWith(spillWin, spillWout, rng)
	} else {
		model = skipgram.New(g.NumNodes(), cfg.Dim, rng)
	}

	var acct *dp.Accountant
	var noise xrand.Stream
	if cfg.Private {
		acct = dp.NewAccountant(nil)
		// The DP noise of Eq. (6)/(9) comes from a counter-based stream
		// rooted here (one draw off the run RNG), addressed by
		// (epoch, matrix, row, coordinate) instead of drawn sequentially,
		// so the update stage can shard across workers (parallel.go).
		// Non-private runs skip the draw: their RNG sequence is identical
		// to the pre-stream layout.
		noise = xrand.NewStream(rng.Uint64())
	}
	gamma := float64(cfg.BatchSize) / float64(g.NumEdges())

	res := &Result{Model: model}
	startEpoch := 0
	if ck := hooks.Resume; ck != nil {
		// Restore writes the dense checkpoint matrices (their shape
		// checked by validateFor) into whichever tier THIS run selected —
		// a run may resume under a smaller (or no) budget than the one
		// that wrote the snapshot, since the budget is outside the config
		// hash.
		model.Win.WriteRows(0, ck.Win)
		model.Wout.WriteRows(0, ck.Wout)
		rng.Restore(ck.RNG)
		if cfg.Private {
			noise = xrand.StreamFromState(ck.Noise)
			if acct, err = dp.NewAccountantFromState(ck.Accountant); err != nil {
				res.CloseSpill()
				return nil, err
			}
		}
		startEpoch = ck.Epoch
		res.Epochs = ck.Epoch
		res.LossHistory = append(res.LossHistory, ck.LossHistory...)
		res.EpsilonSpent, res.DeltaSpent = ck.EpsilonSpent, ck.DeltaSpent
		// Re-evaluate the stopping rule on the restored accountant: a
		// checkpoint taken at a budget-exhausted boundary must not buy
		// extra epochs by resuming — the resumed run ends exactly where
		// the uninterrupted one did.
		if cfg.Private && startEpoch > 0 {
			if dHat, _ := acct.DeltaFor(cfg.Epsilon); dHat >= cfg.Delta {
				res.StoppedByBudget = true
				res.Stopped = StopBudget
				startEpoch = cfg.MaxEpochs // skip the loop
			}
		}
	}

	eng := newEngine(model, subs, weights, cfg, noise)
	// A panic ends the run with no result to hand back, so its spill files
	// are closed on the way out rather than left to a finalizer — a
	// process that recovers the panic (the service) outlives them.
	defer func() {
		if r := recover(); r != nil {
			res.CloseSpill()
			panic(r)
		}
	}()

	// spillFailed ends a run whose spill tier hit an I/O error, closing
	// its spill files so their disk blocks are freed at once.
	spillFailed := func(err error) (*Result, error) {
		res.CloseSpill()
		return nil, fmt.Errorf("core: spill tier: %w", err)
	}
	// emitCheckpoint snapshots the run at the current epoch boundary,
	// records it on the Result, and feeds the Checkpoint hook (capture is
	// dense — O(|V|·r) — even for spilled runs; DESIGN.md §15 records the
	// limitation). A capture that read a failed spill tier holds zeros or
	// stale rows, so it reaches neither the hook — which may persist it
	// over the last good snapshot — nor the Result; the spill error is
	// returned instead.
	emitCheckpoint := func() error {
		ck := captureCheckpoint(g, cfg, model, rng, noise, acct, res)
		if err := res.SpillErr(); err != nil {
			return err
		}
		res.Checkpoint = ck
		if hooks.Checkpoint != nil {
			hooks.Checkpoint(ck)
		}
		return nil
	}

	for epoch := startEpoch; epoch < cfg.MaxEpochs; epoch++ {
		// Cancellation boundary: between epochs the model, RNG and
		// accountant are mutually consistent, so this is the one place a
		// stop can produce a resumable snapshot.
		if ctx.Err() != nil {
			res.Stopped = StopCanceled
			res.Stages = stages
			if err := emitCheckpoint(); err != nil {
				return spillFailed(err)
			}
			return res, nil
		}
		stageClock := time.Now()
		// Line 5: sample B subgraphs uniformly at random (without
		// replacement; Definition 6 with γ = B/|E|).
		idx := rng.SampleWithoutReplacement(len(subs), cfg.BatchSize)
		// Resolve the batch's touched rows into views for the whole epoch;
		// on the spill tier this pins their chunks and reads them in, so
		// the parallel stages never fault, evict or lock. A spill I/O
		// failure (here or in any earlier fault) fails the run.
		if err := eng.touchRows(idx); err != nil {
			return spillFailed(err)
		}
		// Per-example losses, rank-1 gradients and clip factors (the stage
		// that parallelizes across cfg.Workers)...
		lossSum := eng.computeStage(idx)
		res.LossHistory = append(res.LossHistory, lossSum/float64(cfg.BatchSize))
		now := time.Now()
		stages.Gradients += now.Sub(stageClock)
		stageClock = now
		// ...then each touched row's contributions are grouped in batch
		// order...
		eng.groupStage(g.NumNodes())
		now = time.Now()
		stages.Reduce += now.Sub(stageClock)
		stageClock = now

		// ...and lines 6–7 replay, perturb and apply each row's summed
		// gradient, in blocks of rows across the pool, with
		// index-addressed noise.
		eng.update(epoch)
		eng.unpinEpoch()
		stages.Update += time.Since(stageClock)
		res.Epochs = epoch + 1
		res.Stages = stages

		// Lines 8–10: update the RDP accountant with sampling probability
		// B/|E| and stop once the spent δ̂ reaches the budget.
		stopBudget := false
		if cfg.Private {
			acct.AddGaussianStep(gamma, cfg.Sigma)
			dHat, _ := acct.DeltaFor(cfg.Epsilon)
			res.DeltaSpent = dHat
			res.EpsilonSpent, _ = acct.EpsilonFor(cfg.Delta)
			if dHat >= cfg.Delta {
				res.StoppedByBudget = true
				res.Stopped = StopBudget
				stopBudget = true
			}
		}
		if hooks.Epoch != nil {
			hooks.Epoch(EpochStats{
				Epoch:      epoch,
				Loss:       res.LossHistory[len(res.LossHistory)-1],
				EpsSpent:   res.EpsilonSpent,
				DeltaSpent: res.DeltaSpent,
				Elapsed:    time.Since(start),
				Stages:     stages,
			})
		}
		if hooks.CheckpointEvery > 0 && (epoch+1)%hooks.CheckpointEvery == 0 {
			if err := emitCheckpoint(); err != nil {
				return spillFailed(err)
			}
		}
		if stopBudget {
			break
		}
	}
	res.Stages = stages // covers runs whose loop never entered (resume at budget)
	// Final snapshot for callers that asked for checkpoints, unless the
	// periodic cadence already produced one at this exact boundary.
	if (hooks.CheckpointEvery > 0 || hooks.Checkpoint != nil) &&
		(res.Checkpoint == nil || res.Checkpoint.Epoch != res.Epochs) {
		if err := emitCheckpoint(); err != nil {
			return spillFailed(err)
		}
	}
	if err := res.SpillErr(); err != nil {
		return spillFailed(err)
	}
	return res, nil
}
