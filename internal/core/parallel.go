package core

import (
	"fmt"
	"math"
	"slices"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/panicx"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// This file implements the deterministic parallel engine behind Train.
// Each epoch of Algorithm 2 splits into three stages; the gradient and
// update stages run on panicx.Blocks, the module's one fork-join pool:
//
//  0. Views (inside the Stages.Gradients clock): list the rows the
//     batch touches and resolve each into a []float64 view, once per
//     epoch — from the dense matrix, or pinned on the spill tier
//     (pinEpoch). The stages below reach the model only through these
//     views and call no Mat.Row, so they take no lock on either tier.
//  1. Gradient stage: for every sampled subgraph run the one-pass
//     forward+backward (skipgram.RowLossGradients) and compute the
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
//     it, in blocks of rows across the pool, with noise addressed by
//     (epoch, matrix, row, coordinate) on a counter-based stream (xrand
//     contract pattern 3) — see applyUpdate. Wout goes first: its
//     replay reads the pre-update Win rows v_I.
//
// Determinism contract: a fixed Config.Seed yields bit-identical Results
// at every worker count, and Workers > 1 matches the serial Workers <= 1
// path bit for bit. Floating-point addition is not associative, so naive
// per-shard partial sums would change with the shard layout; instead each
// worker writes its examples' gradients into a pre-indexed slot (one per
// batch position), and every row's sum is replayed inside one task, over
// its contributions in batch order — exactly the order the serial loop
// accumulates in. The serial path uses the same slots, groups and replay
// (workers <= 1 just runs every loop inline), so there is exactly one
// numerical path.
//
// The update stage needs no cross-worker reduction at all: a row's
// contributions are read-only slots, noise is a pure function of its
// (epoch, matrix, row, coordinate) index, rows are disjoint write
// targets, and each row's arithmetic is confined to one task, so which
// goroutine runs which block cannot move a single floating-point
// operation.
//
// Synchronization: slots (stage 1) and rows (stage 3) are disjoint per
// work item, so workers never share a write target, and Blocks returns
// only after every block has run, which orders each stage before the
// next without locks. A panic in a block reaches the Train goroutine as
// a *panicx.Error carrying the pool goroutine's stack.

// Work-grant sizes of the engine's Blocks loops: batch positions per
// gradient-stage grant, rows per update-stage grant.
const (
	gradBlock = 16
	rowBlock  = 32
)

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
// Workers <= 1 and on panicx.Blocks otherwise.
type engine struct {
	model   *skipgram.Model
	subs    []Subgraph
	weights []float64
	cfg     Config
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
	// inViews and outViews hold, position for position, the row views of
	// inRows and outRows, resolved once per epoch by pinEpoch: the
	// gradient stage reads slot i's v_I at inViews[i] and its k+1 Wout
	// rows at outViews[i·(K+1) : (i+1)·(K+1)], and the update writes a
	// touched row through the view at its first contribution. Repeated
	// rows alias one slab row.
	inViews, outViews [][]float64

	// grad holds one r-float row-gradient scratch per worker for the
	// update stage's replay, indexed by the worker index Blocks passes,
	// and zero is the all-zero gradient row of an untouched row under
	// StrategyNaive.
	grad [][]float64
	zero []float64

	// Spill tier (Config.MemoryBudget): when the model's matrices are
	// *mathx.SpillMatrix, each epoch pins the chunks covering its touched
	// rows, and takes their views, before the parallel stages, so no stage
	// ever faults, evicts or locks (mathx.SpillMatrix's pin contract).
	winSpill, woutSpill *mathx.SpillMatrix
	pinsIn, pinsOut     []int32
}

// newEngine builds the engine for one Train call, pre-sizing one slot
// per batch position and one replay scratch per worker. model may be nil
// when the engine is used for the update stage only (tests, benchmarks).
func newEngine(model *skipgram.Model, subs []Subgraph, weights []float64, cfg Config, noise xrand.Stream) *engine {
	e := &engine{
		model:   model,
		subs:    subs,
		weights: weights,
		cfg:     cfg,
		noise:   noise,
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
	e.grad = make([][]float64, max(cfg.Workers, 1))
	for w := range e.grad {
		e.grad[w] = make([]float64, cfg.Dim)
	}
	e.zero = make([]float64, cfg.Dim)
	return e
}

// computeSub fills slot i with the loss, unscaled gradients and clip
// factors of the batch's i-th subgraph at the current parameters, reading
// the model only through the epoch's row views. Both the serial and the
// parallel path go through this one function, so their per-example
// numerics cannot drift apart.
//
// Clipping (Eq. (3)) is split from scaling: the Win part's factor comes
// from the single row ∂L/∂v_i, whose squared norm RowLossGradients returns
// as Norm2Sq(GIn); the Wout part's from the joint norm of its k+1
// rank-1 rows fl(c_t·v_I), treated as one vector. Their squared norms
// are summed over the rounded products fl(c_t·v_I[d]) in Norm2Sq's lane
// order, the rows in t order (mathx.SumScaledNorm2Sq), which is the
// norm of the written-out rows bit for bit. The factors use exactly the
// thresholds and quotients of an in-place clip (n > C ⇒ C/n and
// sq > C² ⇒ C/√sq), and the update's replay applies f·g[d] with one
// rounding per coordinate — the one an in-place Scale performs — so the
// deferred form is bit-identical to clip-then-accumulate.
func (e *engine) computeSub(i int) {
	si, sl, k1 := e.idx[i], &e.slots[i], e.cfg.K+1
	s := e.subs[si]
	ex := skipgram.Example{I: s.I, J: s.J, Negs: s.Negs, W: e.weights[si]}
	sl.loss = skipgram.RowLossGradients(ex, e.inViews[i], e.outViews[i*k1:(i+1)*k1], &sl.grads)
	sl.fIn, sl.fOut = 1, 1
	if c := e.cfg.Clip; c > 0 {
		if n := math.Sqrt(sl.grads.GInSq); n > c { // mathx.Norm2(GIn)
			sl.fIn = c / n
		}
		sl.fOut = clipFactor(mathx.SumScaledNorm2Sq(sl.grads.Coef, sl.grads.VI), c)
	}
}

// computeStage runs the gradient stage for the epoch's sampled indices,
// filling one slot per batch position (inline when serial, in blocks of
// positions across the pool otherwise), and returns the batch loss summed
// in batch order.
func (e *engine) computeStage(idx []int) float64 {
	e.idx = idx
	panicx.Blocks(len(idx), e.cfg.Workers, gradBlock, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.computeSub(i)
		}
	})
	var lossSum float64
	for i := range idx {
		lossSum += e.slots[i].loss
	}
	return lossSum
}

// touchRows lists the epoch's touched rows once per contribution, in
// batch order, into inRows and outRows, and resolves their views
// (pinEpoch). Every subgraph carries exactly K negatives
// (GenerateSubgraphs), so slot i's Wout contributions sit at
// outRows[i·(K+1) : (i+1)·(K+1)]. It returns pinEpoch's error.
func (e *engine) touchRows(idx []int) error {
	e.inRows, e.outRows = e.inRows[:0], e.outRows[:0]
	for _, si := range idx {
		s := e.subs[si]
		e.inRows = append(e.inRows, s.I)
		e.outRows = append(e.outRows, s.J)
		e.outRows = append(e.outRows, s.Negs...)
	}
	return e.pinEpoch()
}

// groupStage groups the epoch's contributions by touched row (the
// Stages.Reduce clock).
func (e *engine) groupStage(nRows int) {
	e.groupIn.build(e.inRows, nRows)
	e.groupOut.build(e.outRows, nRows)
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
		if n == 0 {
			mathx.ScaledSet(dst, f, c, v)
		} else {
			mathx.ScaledAdd(dst, f, c, v)
		}
	}
}

// applyUpdate replays, perturbs and applies the batch gradient of one
// matrix per the configured strategy — W -= η·(Σ clipped grads + noise),
// Eq. (6)/(9) — in blocks of rows across the pool. Each touched row's
// gradient is summed by rowGrad into the running worker's scratch and
// applied in the same task, so no |touched|×r accumulator exists. update
// orders the two matrices.
//
// Each touched row is written through the epoch's view at its first
// contribution (inViews for Win, outViews for Wout), never through
// Mat.Row. The naive strategy also writes the untouched rows; it is
// dense-only (Config validation), so it takes every row from the dense
// matrix.
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
	if cfg.Private && cfg.Strategy == StrategyNaive {
		// Eq. (6): noise at the worst-case sensitivity S_∇v = B·C lands on
		// every row of the |V|×r gradient, touched or not.
		dense := w.(*mathx.Matrix)
		sd := float64(cfg.BatchSize) * cfg.Clip * cfg.Sigma
		panicx.Blocks(w.NumRows(), cfg.Workers, rowBlock, func(wk, lo, hi int) {
			for r := lo; r < hi; r++ {
				g := e.zero
				if contribs := grp.of(int32(r)); contribs != nil {
					g = e.grad[wk]
					e.rowGrad(g, matrix, contribs)
				}
				e.noise.Derive(noiseKey(epoch, matrix, r)).NoisyStep(dense.Row(r), g, lr, sd)
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
	views := e.inViews
	if matrix == matWout {
		views = e.outViews
	}
	panicx.Blocks(len(grp.rows), cfg.Workers, rowBlock, func(wk, lo, hi int) {
		g := e.grad[wk]
		for n := lo; n < hi; n++ {
			contribs := grp.group(n)
			e.rowGrad(g, matrix, contribs)
			dst := views[contribs[0]]
			if cfg.Private {
				e.noise.Derive(noiseKey(epoch, matrix, int(grp.rows[n]))).NoisyStep(dst, g, lr, sd)
			} else {
				mathx.AXPY(-lr, g, dst)
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

// pinEpoch resolves the view of every row the epoch's sampled batch will
// touch — Win: the B center rows; Wout: the (K+1)·B positive and negative
// rows, as listed by touchRows — into inViews and outViews. On the dense
// tier each view is the matrix's own row. On the spill tier
// SpillMatrix.PinViews pins the chunks covering the rows, reads those
// rows in and hands out their views, so the parallel stages never fault a
// chunk in, evict one or take the matrix's lock (the engine's side of
// mathx.SpillMatrix's pin contract; Config.MinMemoryBudget guarantees the
// pin set fits). The pins also keep every slot's v_I view valid until the
// update has read it. It returns the spill tier's sticky I/O error, with
// nothing left pinned.
func (e *engine) pinEpoch() error {
	e.inViews = resize(e.inViews, len(e.inRows))
	e.outViews = resize(e.outViews, len(e.outRows))
	if e.winSpill == nil {
		for p, r := range e.inRows {
			e.inViews[p] = e.model.Win.Row(int(r))
		}
		for p, r := range e.outRows {
			e.outViews[p] = e.model.Wout.Row(int(r))
		}
		return nil
	}
	var err error
	if e.pinsIn, err = e.winSpill.PinViews(e.inRows, e.inViews); err != nil {
		return err
	}
	if e.pinsOut, err = e.woutSpill.PinViews(e.outRows, e.outViews); err != nil {
		e.winSpill.Unpin(e.pinsIn)
		e.pinsIn = nil
		return err
	}
	return nil
}

// unpinEpoch releases pinEpoch's chunks and drops the views, which the
// next load into a recycled slab would invalidate. No-op on the dense
// tier.
func (e *engine) unpinEpoch() {
	if e.winSpill == nil {
		return
	}
	e.winSpill.Unpin(e.pinsIn)
	e.woutSpill.Unpin(e.pinsOut)
	e.pinsIn, e.pinsOut = nil, nil
	clear(e.inViews)
	clear(e.outViews)
}

// resize returns views with length n, reusing its backing array.
func resize(views [][]float64, n int) [][]float64 {
	return slices.Grow(views[:0], n)[:n]
}
