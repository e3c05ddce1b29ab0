package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/panicx"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// This file implements the deterministic parallel engine behind Train.
// Each epoch of Algorithm 2 splits into three stages; the gradient and
// update stages run on one persistent worker pool:
//
//  1. Gradient stage: for every sampled subgraph run the one-pass
//     forward+backward (skipgram.LossGradients) and compute the
//     per-example clip FACTORS. A slot keeps the Win row-gradient, the
//     k+1 Wout coefficients c_t (Eq. (8) makes every Wout row-gradient
//     the rank-1 c_t·v_I) and a view of v_I — O(r+k) floats, not
//     (k+2)·r. The model is read-only here and the stage consumes NO
//     randomness, so worker scheduling can never perturb the run's random
//     stream (xrand contract pattern 1).
//  2. Grouping (the Stages.Reduce clock): a counting sort lists each
//     touched row's contributions in batch order (rowGroups). No
//     gradient float moves here.
//  3. Update stage: per touched row, replay its contributions into one
//     per-worker r-float scratch in batch order, then perturb and apply
//     it, sharded across the pool by row owner, with noise addressed by
//     (epoch, matrix, row, coordinate) on a counter-based stream (xrand
//     contract pattern 3) — see applyUpdate. Wout goes first: its
//     replay reads the pre-update Win rows v_I.
//
// Determinism contract: a fixed Config.Seed yields bit-identical Results
// at every worker count, and Workers > 1 matches the serial Workers <= 1
// path bit for bit. Floating-point addition is not associative, so naive
// per-shard partial sums would change with the shard layout; instead each
// worker writes its examples' gradients into a pre-indexed slot (one per
// batch position), and every row's sum is replayed by the one worker that
// owns the row, over its contributions in batch order — exactly the order
// the serial loop accumulates in. The serial path uses the same slots,
// groups and replay (workers <= 1 just runs every loop inline), so there
// is exactly one numerical path.
//
// The update stage needs no cross-worker reduction at all: a row's
// contributions are read-only slots, noise is a pure function of its
// (epoch, matrix, row, coordinate) index, rows are disjoint write
// targets, and each row's arithmetic is confined to one worker, so the
// shard layout cannot move a single floating-point operation.
//
// Synchronization: slots (stage 1) and rows (stage 3) are disjoint per
// work item, so workers never share a write target. The jobs channel send
// happens-before the worker's reads, and wg.Wait happens-after its
// writes, so consecutive stages are properly ordered without locks. A
// worker's panic is recovered on the worker, with the worker's stack, and
// re-raised by dispatch once every span of the stage has finished.

// span is a half-open range [lo, hi) of work positions handed to one
// worker as a unit.
type span struct{ lo, hi int }

// slot holds the gradient stage's output for one batch position: the
// example's loss, its UNSCALED gradients in rank-1 form, and the Eq. (3)
// clip factors (1 when the norm is within the threshold) the update's
// replay folds in.
type slot struct {
	loss      float64
	fIn, fOut float64
	grads     skipgram.Grads
}

// Matrix identifiers for the noise-stream key space: Win and Wout noise
// must come from disjoint keys even when they perturb the same row index
// in the same epoch.
const (
	matWin uint64 = iota
	matWout
)

// noiseKey packs the (epoch, matrix, row) address of one row's noise into
// the 64-bit key of the run's counter stream; the coordinate is the
// counter. Layout: epoch in the high 30 bits, matrix in bit 33, row in
// the low 33 bits — supporting |V| < 2^33 and epochs < 2^30, both far
// beyond the accountant's reach at any realistic budget.
func noiseKey(epoch int, matrix uint64, row int) uint64 {
	return uint64(epoch)<<34 | matrix<<33 | uint64(row)
}

// engine runs the per-epoch stages of Algorithm 2, serially for
// workers <= 1 and over a persistent goroutine pool otherwise.
type engine struct {
	model   *skipgram.Model
	subs    []Subgraph
	weights []float64
	cfg     Config
	workers int
	// noise is the run's counter-based noise stream (private runs only);
	// the zero Stream for non-private runs, which never read it.
	noise xrand.Stream

	// slots holds one gradient-stage output per batch position — disjoint
	// write targets for the pool, and the serial path's scratch.
	slots []slot
	idx   []int // current epoch's sampled subgraph indices

	// inRows and outRows list the epoch's touched rows once per
	// contribution, in batch order: slot i's center I at inRows[i], and
	// its J and K negatives at outRows[i·(K+1) : (i+1)·(K+1)]. They feed
	// the spill pins and the grouping; groupIn/groupOut list each touched
	// row's contributions as positions into them.
	inRows, outRows   []int32
	groupIn, groupOut rowGroups

	// Worker pool (workers > 1): one channel per worker, so a span routed
	// to index w always runs on goroutine w — the mechanism behind the
	// update stage's row ownership (see forOwnerSegments). Tasks receive
	// w, so per-worker scratch needs no locking.
	task func(w, lo, hi int)
	jobs []chan span
	wg   sync.WaitGroup
	// panicked holds the first panic a worker recovered from during the
	// current dispatch, which re-raises it on the Train goroutine.
	panicked atomic.Pointer[panicx.Error]

	// grad holds one r-float row-gradient scratch per worker for the
	// update stage's replay, and zero is the all-zero gradient row of an
	// untouched row under StrategyNaive.
	grad [][]float64
	zero []float64

	// owned is the fixed row-ownership partition of the update stage:
	// worker w owns the contiguous model row range owned[w] for the life
	// of the run, so every write to a given weight row happens on one
	// goroutine. ownedRows caches the row count it was built for.
	owned     []span
	ownedRows int
	// seg is forOwnerSegments' reusable per-owner segment buffer.
	seg []span

	// Spill tier (Config.MemoryBudget): when the model's matrices are
	// *mathx.SpillMatrix, each epoch pins the chunks covering its touched
	// rows before the parallel stages, so no stage ever faults or evicts
	// concurrently (mathx.SpillMatrix's pin contract).
	winSpill, woutSpill *mathx.SpillMatrix
	pinsIn, pinsOut     []int32
}

// newEngine builds the engine for one Train call. For workers > 1 it
// pre-sizes one slot per batch position and starts the worker pool; close
// must be called to release the goroutines. model may be nil when the
// engine is used for the update stage only (tests, benchmarks).
func newEngine(model *skipgram.Model, subs []Subgraph, weights []float64, cfg Config, noise xrand.Stream) *engine {
	e := &engine{
		model:   model,
		subs:    subs,
		weights: weights,
		cfg:     cfg,
		workers: cfg.Workers,
		noise:   noise,
	}
	// Cap the pool at the widest stage it can ever serve: the gradient
	// stage offers at most BatchSize positions, but StrategyNaive's update
	// shards all |V| rows of the model, which can far exceed B. Goroutines
	// beyond the per-dispatch span count just block on the channel, so the
	// clamp only avoids spawning goroutines NO stage could use.
	maxShard := cfg.BatchSize
	if model != nil && model.Win.NumRows() > maxShard {
		maxShard = model.Win.NumRows()
	}
	if e.workers > maxShard {
		e.workers = maxShard
	}
	e.slots = make([]slot, cfg.BatchSize)
	for i := range e.slots {
		e.slots[i].grads.Ensure(cfg.Dim, cfg.K)
	}
	if model != nil {
		if sw, ok := model.Win.(*mathx.SpillMatrix); ok {
			e.winSpill = sw
			e.woutSpill, _ = model.Wout.(*mathx.SpillMatrix)
		}
	}
	e.grad = make([][]float64, max(e.workers, 1))
	for w := range e.grad {
		e.grad[w] = make([]float64, cfg.Dim)
	}
	e.zero = make([]float64, cfg.Dim)
	if e.workers > 1 {
		e.jobs = make([]chan span, e.workers)
		for w := 0; w < e.workers; w++ {
			e.jobs[w] = make(chan span)
			go e.workerLoop(w)
		}
	}
	return e
}

// close shuts down the worker pool. It is a no-op for serial engines.
func (e *engine) close() {
	for _, ch := range e.jobs {
		close(ch)
	}
}

// workerLoop drains worker w's span channel, running the engine's current
// task on each.
func (e *engine) workerLoop(w int) {
	for sp := range e.jobs[w] {
		e.runSpan(w, sp)
	}
}

// runSpan runs the current task on one span and marks it done. A panic in
// the task is recovered, with this worker's stack, and kept for dispatch:
// left alone, a panic on a pool goroutine ends the process, while
// re-raised on the Train goroutine it reaches whoever called Train — the
// service fails that one job.
func (e *engine) runSpan(w int, sp span) {
	defer e.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			e.panicked.CompareAndSwap(nil, panicx.Recovered(r))
		}
	}()
	e.task(w, sp.lo, sp.hi)
}

// dispatch runs task over the given spans, routing spans[i] to worker i —
// inline and in order when serial. Dispatch is always from the single
// Train goroutine, so installing e.task before the sends is race-free (the
// channel send happens-before the worker's read).
func (e *engine) dispatch(spans []span, task func(w, lo, hi int)) {
	if len(spans) == 0 {
		return
	}
	if e.jobs == nil || len(spans) == 1 {
		for w, sp := range spans {
			task(w, sp.lo, sp.hi)
		}
		return
	}
	e.task = task
	e.wg.Add(len(spans))
	for w, sp := range spans {
		e.jobs[w] <- sp
	}
	e.wg.Wait()
	e.task = nil
	if p := e.panicked.Swap(nil); p != nil {
		panic(p)
	}
}

// forSpans runs task over [0, n) — inline when serial, sharded into
// near-equal contiguous spans across the pool otherwise.
func (e *engine) forSpans(n int, task func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if e.jobs == nil || e.workers <= 1 || n == 1 {
		task(0, 0, n)
		return
	}
	e.dispatch(splitSpans(n, e.workers), task)
}

// ownership returns the fixed row-ownership partition for an nRows-row
// matrix: worker w owns the contiguous range ownership[w]. The partition
// is the same near-equal splitSpans layout the stages shard by, computed
// once and cached, so a row's owner never changes over the run.
func (e *engine) ownership(nRows int) []span {
	if e.owned == nil || e.ownedRows != nRows {
		w := e.workers
		if w < 1 {
			w = 1 // serial engines own everything on the train goroutine
		}
		e.owned = splitSpans(nRows, w)
		e.ownedRows = nRows
	}
	return e.owned
}

// forOwnerSegments shards the sorted touched-row list by the row-ownership
// map: worker w receives exactly the slice of rows falling in its owned
// range, so every weight row is written by one fixed goroutine for the
// whole run (stable cache/NUMA placement), not by whichever worker the
// epoch's touched-row count happened to assign it to. The owner reads a
// row's contributions from the slots, which the gradient stage finished
// before this dispatch, and replays them in batch order, so ownership
// moves no arithmetic and the result stays bit-identical to any other
// layout (disjoint rows, index-addressed noise).
func (e *engine) forOwnerSegments(rows []int32, nRows int, task func(w, lo, hi int)) {
	if len(rows) == 0 {
		return
	}
	if e.jobs == nil || e.workers <= 1 {
		task(0, 0, len(rows))
		return
	}
	owned := e.ownership(nRows)
	e.seg = e.seg[:0]
	lo := 0
	for _, own := range owned {
		hi := lo
		for hi < len(rows) && int(rows[hi]) < own.hi {
			hi++
		}
		e.seg = append(e.seg, span{lo, hi}) // may be empty; keeps index == worker
		lo = hi
	}
	e.dispatch(e.seg, task)
}

// computeSub fills sl with subgraph si's loss, unscaled gradients and clip
// factors at the current parameters. Both the serial and the parallel path
// go through this one function, so their per-example numerics cannot drift
// apart.
//
// Clipping (Eq. (3)) is split from scaling: the Win part's factor comes
// from the single row ∂L/∂v_i, the Wout part's from the joint norm over
// its k+1 rank-1 rows fl(c_t·v_I) (rank1ClipFactor). The factors use
// exactly the thresholds and quotients of an in-place clip (n > C ⇒ C/n
// and sq > C² ⇒ C/√sq), and the update's replay applies f·g[d] with one
// rounding per coordinate — the one an in-place Scale performs — so the
// deferred form is bit-identical to clip-then-accumulate.
func (e *engine) computeSub(si int, sl *slot) {
	s := e.subs[si]
	ex := skipgram.Example{I: s.I, J: s.J, Negs: s.Negs, W: e.weights[si]}
	sl.loss = e.model.LossGradients(ex, &sl.grads)
	sl.fIn, sl.fOut = 1, 1
	if c := e.cfg.Clip; c > 0 {
		if n := mathx.Norm2(sl.grads.GIn); n > c {
			sl.fIn = c / n
		}
		sl.fOut = rank1ClipFactor(sl.grads.Coef, sl.grads.VI, c)
	}
}

// computeStage runs the gradient stage for the epoch's sampled indices,
// filling one slot per batch position (inline when serial, sharded across
// the pool otherwise), and returns the batch loss summed in batch order.
func (e *engine) computeStage(idx []int) float64 {
	e.idx = idx
	e.forSpans(len(idx), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.computeSub(e.idx[i], &e.slots[i])
		}
	})
	var lossSum float64
	for i := range idx {
		lossSum += e.slots[i].loss
	}
	return lossSum
}

// touchRows lists the epoch's touched rows once per contribution, in
// batch order, into inRows and outRows. Every subgraph carries exactly K
// negatives (GenerateSubgraphs), so slot i's Wout contributions sit at
// outRows[i·(K+1) : (i+1)·(K+1)].
func (e *engine) touchRows(idx []int) {
	e.inRows, e.outRows = e.inRows[:0], e.outRows[:0]
	for _, si := range idx {
		s := e.subs[si]
		e.inRows = append(e.inRows, s.I)
		e.outRows = append(e.outRows, s.J)
		e.outRows = append(e.outRows, s.Negs...)
	}
}

// groupStage groups the epoch's contributions by touched row (the
// Stages.Reduce clock). Rows are sorted only when a pool will shard them
// by owner; the serial update walks them in first-touch order.
func (e *engine) groupStage(nRows int) {
	sorted := e.jobs != nil
	e.groupIn.build(e.inRows, nRows, sorted)
	e.groupOut.build(e.outRows, nRows, sorted)
}

// rowGrad replays one touched row's contributions (group positions into
// inRows or outRows), in batch order, into dst: the first as f·g, each
// later one as t := f·g; dst += t — so the sum is bit-identical to the
// accumulate of clipped example gradients. Every contribution is a scaled
// vector g = fl(c·v): a Wout one is slot i's f_out times the rank-1 row
// fl(c_t·v_I), formed in registers and never stored; a Win one is slot
// i's f_in times GIn, with c = 1 (exact).
func (e *engine) rowGrad(dst []float64, matrix uint64, contribs []int32) {
	dst = dst[:e.cfg.Dim]
	k1 := int32(e.cfg.K + 1)
	for n, p := range contribs {
		var f, c float64
		var v []float64
		if matrix == matWin {
			sl := &e.slots[p]
			f, c, v = sl.fIn, 1, sl.grads.GIn
		} else {
			sl := &e.slots[p/k1]
			f, c, v = sl.fOut, sl.grads.Coef[p%k1], sl.grads.VI
		}
		v = v[:len(dst)]
		if n == 0 {
			for d, x := range v {
				g := c * x
				dst[d] = f * g
			}
			continue
		}
		for d, x := range v {
			g := c * x
			t := f * g
			dst[d] += t
		}
	}
}

// applyUpdate replays, perturbs and applies the batch gradient of one
// matrix per the configured strategy — W -= η·(Σ clipped grads + noise),
// Eq. (6)/(9) — sharding rows across the worker pool by owner. Each
// touched row's gradient is summed by rowGrad into the owning worker's
// scratch and applied in the same task, so no |touched|×r accumulator
// exists. update orders the two matrices.
//
// Batch semantics: the B clipped example gradients are summed, not
// averaged. Eq. (9) writes a 1/B prefactor, but folding it into η (i.e.
// η_eff = η/B) leaves per-example steps of ~η·C/B ≈ 1.6e-3·C at the
// paper's B=128 — far too small for any row to leave its initialization
// within the paper's n_epoch budget, for private and non-private runs
// alike. Summing (the per-example-SGD semantics DeepWalk-family trainers
// use) reproduces the paper's reported utility levels and orderings; see
// DESIGN.md §5 for the calibration analysis. Privacy is unaffected: the
// noise is scaled to the same sensitivity as the summed gradient, and a
// common post-factor η is post-processing.
//
// Noise is index-addressed, not drawn sequentially: coordinate d of row r
// receives sd·NormalAt(d) on the substream keyed by (epoch, matrix, r),
// drawn inside the apply loop (xrand.Stream.NoisyStep). The draw is a
// pure function of that address (DESIGN.md §6 pattern 3), so sharding
// rows across workers — in any layout, at any count — yields
// bit-identical matrices, and each row's noise is also independent of
// which other rows the batch touched.
func (e *engine) applyUpdate(w mathx.Mat, grp *rowGroups, epoch int, matrix uint64) {
	cfg := &e.cfg
	lr := cfg.LearningRate
	nRows := w.NumRows()
	if cfg.Private && cfg.Strategy == StrategyNaive {
		// Eq. (6): noise at the worst-case sensitivity S_∇v = B·C lands on
		// every row of the |V|×r gradient, touched or not.
		sd := float64(cfg.BatchSize) * cfg.Clip * cfg.Sigma
		e.dispatch(e.ownership(nRows), func(wk, lo, hi int) {
			for r := lo; r < hi; r++ {
				g := e.zero
				if contribs := grp.of(int32(r)); contribs != nil {
					g = e.grad[wk]
					e.rowGrad(g, matrix, contribs)
				}
				e.noise.Derive(noiseKey(epoch, matrix, r)).NoisyStep(w.Row(r), g, lr, sd)
			}
		})
		return
	}
	if cfg.Private && cfg.Strategy != StrategyNonZero {
		panic(fmt.Sprintf("core: unknown strategy %v", cfg.Strategy))
	}
	// Eq. (9): Ñ adds noise only to non-zero rows, at the per-row
	// sensitivity C tolerated by the mechanism; non-private runs apply
	// the plain sum.
	sd := cfg.Clip * cfg.Sigma
	e.forOwnerSegments(grp.rows, nRows, func(wk, lo, hi int) {
		g := e.grad[wk]
		for n := lo; n < hi; n++ {
			row := int(grp.rows[n])
			e.rowGrad(g, matrix, grp.group(n))
			if cfg.Private {
				e.noise.Derive(noiseKey(epoch, matrix, row)).NoisyStep(w.Row(row), g, lr, sd)
			} else {
				mathx.AXPY(-lr, g, w.Row(row))
			}
		}
	})
}

// update runs the epoch's update stage on the model: Wout first, because
// its replay reads the Win rows v_I as the gradient stage saw them, then
// Win.
func (e *engine) update(epoch int) {
	e.applyUpdate(e.model.Wout, &e.groupOut, epoch, matWout)
	e.applyUpdate(e.model.Win, &e.groupIn, epoch, matWin)
}

// pinEpoch pins the spill-tier chunks covering every row the epoch's
// sampled batch will touch — Win: the B center rows; Wout: the (K+1)·B
// positive and negative rows, as listed by touchRows — and reads those
// rows in, so the parallel stages below never fault a chunk in or evict
// one (the engine's side of mathx.SpillMatrix's pin contract;
// Config.MinMemoryBudget guarantees the pin set fits). The pins also keep
// every slot's v_I view valid until the update has read it. It returns the
// spill tier's sticky I/O error, with nothing left pinned. No-op on the
// dense tier.
func (e *engine) pinEpoch() error {
	if e.winSpill == nil {
		return nil
	}
	var err error
	if e.pinsIn, err = e.winSpill.Pin(e.inRows); err != nil {
		return err
	}
	if e.pinsOut, err = e.woutSpill.Pin(e.outRows); err != nil {
		e.winSpill.Unpin(e.pinsIn)
		e.pinsIn = nil
		return err
	}
	return nil
}

// unpinEpoch releases pinEpoch's chunks. No-op on the dense tier.
func (e *engine) unpinEpoch() {
	if e.winSpill == nil {
		return
	}
	e.winSpill.Unpin(e.pinsIn)
	e.woutSpill.Unpin(e.pinsOut)
	e.pinsIn, e.pinsOut = nil, nil
}

// splitSpans cuts [0, n) into at most w contiguous non-empty spans of
// near-equal size (the first n%w spans are one longer).
func splitSpans(n, w int) []span {
	if w > n {
		w = n
	}
	if w < 1 {
		return nil
	}
	spans := make([]span, 0, w)
	base, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		size := base
		if i < rem {
			size++
		}
		spans = append(spans, span{lo, lo + size})
		lo += size
	}
	return spans
}
