package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/skipgram"
)

// Strategy selects how the batch gradient is perturbed before the update.
type Strategy int

const (
	// StrategyNonZero is the paper's noise-tolerance mechanism (Eq. (9)):
	// Gaussian noise is injected only into the rows of the gradient matrix
	// that the batch actually touched, with per-row noise scale C·σ. This
	// is what Fig. 2(d) illustrates.
	StrategyNonZero Strategy = iota
	// StrategyNaive is the first-cut solution (Eq. (6)): noise scaled to
	// the worst-case node-level sensitivity S_∇v = B·C lands on every row
	// of the gradient matrix, drowning the signal. Kept as the Table VI
	// comparison arm.
	StrategyNaive
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyNonZero:
		return "non-zero"
	case StrategyNaive:
		return "naive"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config collects the hyperparameters of Algorithm 2. DefaultConfig returns
// the paper's settings.
type Config struct {
	Dim          int     // embedding dimension r
	K            int     // negative sampling number k
	BatchSize    int     // B subgraphs sampled per epoch
	MaxEpochs    int     // n_epoch
	LearningRate float64 // η
	Clip         float64 // gradient clipping threshold C (<= 0 disables)
	Sigma        float64 // Gaussian noise multiplier σ
	Epsilon      float64 // target privacy budget ε
	Delta        float64 // target failure probability δ
	Strategy     Strategy
	NegSampling  NegSampling
	Private      bool   // false trains the non-private SE-GEmb counterpart
	Seed         uint64 // seeds all randomness of the run
	// Workers sets the goroutine count of the parallel stages: subgraph
	// generation, the per-epoch gradient stage, and the perturb-and-apply
	// update stage (whose DP noise is addressed by (epoch, matrix, row)
	// on a counter-based stream rather than drawn sequentially). 0 and 1
	// both select the serial path; any value yields bit-identical results
	// for a fixed Seed (see parallel.go for the determinism contract), so
	// Workers trades only wall-clock time, never output.
	Workers int
	// MemoryBudget bounds the bytes of resident training state for the two
	// weight matrices. 0 (the default) trains fully in memory; a positive
	// budget smaller than the dense 2·|V|·r·8 bytes selects the spill tier
	// (mathx.SpillMatrix): resident rows become an LRU window of 64 KiB
	// chunks over an unlinked backing file. The private naive strategy
	// perturbs every row each epoch and so trains in memory only:
	// validation rejects it with a positive budget. Like Workers,
	// the budget is an execution knob, not an identity: results are
	// bit-identical at every budget (and excluded from Config.Hash), so
	// dedup, job IDs, and artifacts are unaffected. A positive budget below
	// MinMemoryBudget is rejected by validation; a budget at or above the
	// dense footprint falls back to the dense tier.
	MemoryBudget int64
}

// DenseStateBytes returns the bytes of dense training state a run on
// `nodes` nodes would hold: two |V|×r float64 matrices. A MemoryBudget at
// or above this buys nothing and selects the dense tier.
func (c Config) DenseStateBytes(nodes int) int64 {
	return 2 * int64(nodes) * int64(c.Dim) * 8
}

// MinMemoryBudget returns the smallest admissible positive MemoryBudget
// for a run of this config on `nodes` nodes. An epoch must be able to pin
// every row it touches — at most BatchSize distinct Win rows (one center
// per example) and (K+1)·BatchSize distinct Wout rows — in the worst case
// each landing in its own 64 KiB chunk, plus one streaming spare per
// matrix (the README "Capacity planning" section works the formula
// through).
func (c Config) MinMemoryBudget(nodes int) int64 {
	return mathx.MinSpillBudget(nodes, c.Dim, c.BatchSize) +
		mathx.MinSpillBudget(nodes, c.Dim, (c.K+1)*c.BatchSize)
}

// spillActive reports whether this config trains on the spill tier for a
// graph of `nodes` nodes: a positive budget strictly below the dense
// footprint.
func (c Config) spillActive(nodes int) bool {
	return c.MemoryBudget > 0 && c.MemoryBudget < c.DenseStateBytes(nodes)
}

// TrainingStateBytes returns the resident weight-state footprint a run of
// this config on `nodes` nodes claims: the MemoryBudget when the spill
// tier is active, the dense 2·|V|·r·8 bytes otherwise. This is what a
// serving layer charges a job against its per-job memory cap.
func (c Config) TrainingStateBytes(nodes int) int64 {
	if c.spillActive(nodes) {
		return c.MemoryBudget
	}
	return c.DenseStateBytes(nodes)
}

// DefaultConfig returns the paper's experimental settings (Section VI-A):
// r=128, k=5, B=128, η=0.1, C=2, σ=5, δ=1e-5, ε=3.5, 200 epochs,
// non-zero perturbation.
func DefaultConfig() Config {
	return Config{
		Dim:          128,
		K:            5,
		BatchSize:    128,
		MaxEpochs:    200,
		LearningRate: 0.1,
		Clip:         2,
		Sigma:        5,
		Epsilon:      3.5,
		Delta:        1e-5,
		Strategy:     StrategyNonZero,
		NegSampling:  NegUniform,
		Private:      true,
	}
}

// Validate reports whether cfg can train on g: the checks TrainContext
// runs before any setup, exported so the serving layer can reject a bad
// submission up front instead of failing the job.
func (c Config) Validate(g *graph.Graph) error {
	switch {
	case g.NumEdges() == 0:
		return fmt.Errorf("core: graph has no edges to train on")
	case c.Dim < 1:
		return fmt.Errorf("core: embedding dimension %d must be >= 1", c.Dim)
	case c.K < 1:
		return fmt.Errorf("core: negative sampling number %d must be >= 1", c.K)
	case c.BatchSize < 1:
		return fmt.Errorf("core: batch size %d must be >= 1", c.BatchSize)
	case c.BatchSize > g.NumEdges():
		return fmt.Errorf("core: batch size %d exceeds |E| = %d (sampling is without replacement)",
			c.BatchSize, g.NumEdges())
	case c.MaxEpochs < 1:
		return fmt.Errorf("core: max epochs %d must be >= 1", c.MaxEpochs)
	case c.LearningRate <= 0:
		return fmt.Errorf("core: learning rate %g must be positive", c.LearningRate)
	case c.Workers < 0:
		return fmt.Errorf("core: worker count %d must be >= 0", c.Workers)
	case c.MemoryBudget < 0:
		return fmt.Errorf("core: memory budget %d must be >= 0", c.MemoryBudget)
	}
	if c.Private && c.Strategy == StrategyNaive && c.MemoryBudget > 0 {
		return fmt.Errorf("core: the naive strategy does not support a memory budget " +
			"(its noise lands on every row each epoch, so it trains in memory only)")
	}
	if c.spillActive(g.NumNodes()) {
		if min := c.MinMemoryBudget(g.NumNodes()); c.MemoryBudget < min {
			return fmt.Errorf("core: memory budget %d B cannot pin one epoch's touched rows; need >= %d B "+
				"(BatchSize Win rows + (K+1)·BatchSize Wout rows in worst-case distinct 64 KiB chunks)",
				c.MemoryBudget, min)
		}
	}
	if c.Private {
		switch {
		case c.Clip <= 0:
			return fmt.Errorf("core: private training needs a positive clip threshold, got %g", c.Clip)
		case c.Sigma <= 0:
			return fmt.Errorf("core: private training needs a positive noise multiplier, got %g", c.Sigma)
		case c.Epsilon <= 0:
			return fmt.Errorf("core: target epsilon %g must be positive", c.Epsilon)
		case c.Delta <= 0 || c.Delta >= 1:
			return fmt.Errorf("core: target delta %g must lie in (0, 1)", c.Delta)
		}
	}
	return nil
}

// Result is the outcome of one training run.
type Result struct {
	// Model holds the (ε, δ)-private Win and Wout; Model.Win is the
	// published embedding matrix (Definition 5).
	Model *skipgram.Model
	// Epochs is the number of completed training epochs (the EpochsRun of
	// a partial, canceled run).
	Epochs int
	// Stopped records why the run ended: StopCompleted, StopBudget, or —
	// for TrainContext runs whose context was canceled — StopCanceled.
	Stopped StopReason
	// StoppedByBudget reports whether the δ̂ ≥ δ rule (Algorithm 2 line 10)
	// ended training before MaxEpochs. Equivalent to Stopped == StopBudget;
	// kept for pre-Session callers.
	StoppedByBudget bool
	// EpsilonSpent is the final ε certified at the target δ (private runs).
	EpsilonSpent float64
	// DeltaSpent is the final δ̂ certified at the target ε (private runs).
	DeltaSpent float64
	// LossHistory records the average batch loss of every epoch.
	LossHistory []float64
	// Stages is the run's per-stage wall-clock breakdown (DESIGN.md §12).
	Stages StageTimings
	// Checkpoint is the snapshot at the run's final epoch boundary. It is
	// populated when the run was canceled (so the partial result is always
	// resumable) or when Hooks requested checkpointing; nil otherwise.
	Checkpoint *Checkpoint
}

// Embedding returns the published embedding matrix Win as a dense matrix.
// For the in-memory tier this is the model's own matrix (O(1)); for a
// spill-backed run it MATERIALIZES the full |V|×r matrix — an O(|V|·r)
// allocation that defeats the budget, kept as the compatibility escape
// hatch for whole-matrix consumers (eval, figures). Budget-conscious
// callers use Rows, which stays O(window) on every tier.
func (r *Result) Embedding() *mathx.Matrix { return mathx.Materialize(r.Model.Win) }

// Rows returns rows [lo, hi) of the published embedding — the in-memory
// half of the partial-embedding serving contract (the artifact store's
// LoadRows is the on-disk half). On the dense tier it is an O(1) view
// sharing the result's backing array; on the spill tier it is an O(window)
// copy read through the LRU cache, never a full materialization. Results
// are shared across deduplicated submissions, so the view must be treated
// as read-only. An out-of-range window is an error rather than a panic:
// serving layers turn it into a 400.
func (r *Result) Rows(lo, hi int) (*mathx.Matrix, error) {
	win := r.Model.Win
	if lo < 0 || hi < lo || hi > win.NumRows() {
		return nil, fmt.Errorf("core: row window [%d, %d) outside embedding with %d rows", lo, hi, win.NumRows())
	}
	if sm, ok := win.(*mathx.SpillMatrix); ok {
		return sm.ReadRows(lo, hi), nil
	}
	return win.(*mathx.Matrix).RowRange(lo, hi), nil
}

// Train runs SE-PrivGEmb (Algorithm 2) — or its non-private SE-GEmb
// counterpart when cfg.Private is false — on g with the given structure
// preference. The proximity argument supplies the per-edge weights p_ij of
// the Eq. (5) objective.
//
// With cfg.Workers > 1 subgraph generation, the per-epoch gradient stage
// and the noise/update stage all run on goroutine pools; the result is
// bit-identical to the serial run at every worker count because every
// parallel stage either consumes no randomness or addresses its draws by
// stable indices on counter-based streams (parallel.go, DESIGN.md §6).
//
// Train is the blocking, fire-and-forget form: it cannot be canceled,
// observed, or resumed. New callers should prefer TrainContext (or the
// root package's Session), of which this is the zero-Hooks special case —
// bit-identical output, same errors.
func Train(g *graph.Graph, prox proximity.Proximity, cfg Config) (*Result, error) {
	return TrainContext(context.Background(), g, prox, cfg, Hooks{})
}

// jointClipFactor returns the Eq. (3) joint-clip factor for the k+1 Wout
// row-gradients of one example, treating their concatenation as a single
// vector: 1 when its ℓ2 norm is within c, c/‖·‖ otherwise. The engine keeps
// the factor in the slot and applies it during the reduction (one
// scale-and-accumulate pass per row, rowAccumulator.addScaled) instead of
// an in-place Scale sweep here; the factor arithmetic — c/√(Σ‖r‖²) with
// the same sq ≤ c² early-out — is unchanged, so deferring it moves no
// rounding.
func jointClipFactor(rows [][]float64, c float64) float64 {
	if c <= 0 {
		return 1
	}
	var sq float64
	for _, r := range rows {
		sq += mathx.Norm2Sq(r)
	}
	if sq <= c*c {
		return 1
	}
	return c / math.Sqrt(sq)
}

// clipJoint rescales the concatenation of rows to ℓ2 norm at most c — the
// eager in-place form of jointClipFactor, kept for callers that need the
// clipped rows themselves rather than a deferred factor.
func clipJoint(rows [][]float64, c float64) {
	f := jointClipFactor(rows, c)
	if f == 1 {
		return
	}
	for _, r := range rows {
		mathx.Scale(f, r)
	}
}

// rowAccumulator sums per-example gradient rows into a sparse matrix-shaped
// accumulator keyed by row index. slot[row] is one plus the index of the
// row's vector in vecs (0 for a row untouched this epoch), and touched
// lists the rows holding a vector, so reset costs the touched count, not
// |V|. The vectors are pre-sized at construction (one contiguous backing
// array), so the per-epoch hot path neither allocates nor zeroes: the
// first add to a row overwrites whatever its vector last held, and later
// adds accumulate in place.
type rowAccumulator struct {
	dim     int
	slot    []int32
	touched []int32
	vecs    [][]float64
}

// newRowAccumulator builds the accumulator of an nRows-row matrix and
// pre-sizes vectors for maxRows distinct touched rows. claim falls back to
// a fresh allocation only if a caller underestimates maxRows, so sizing
// is a performance contract, not a correctness one.
func newRowAccumulator(dim, maxRows, nRows int) *rowAccumulator {
	a := &rowAccumulator{
		dim:     dim,
		slot:    make([]int32, nRows),
		touched: make([]int32, 0, maxRows),
		vecs:    make([][]float64, maxRows),
	}
	backing := make([]float64, dim*maxRows)
	for i := range a.vecs {
		a.vecs[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return a
}

// reset forgets every touched row. Vectors are NOT zeroed: addScaled
// overwrites on first touch, so clearing here would be redundant work on
// the hot path.
func (a *rowAccumulator) reset() {
	for _, r := range a.touched {
		a.slot[r] = 0
	}
	a.touched = a.touched[:0]
}

// row returns the row's accumulated vector, or nil when the row was not
// touched this epoch.
func (a *rowAccumulator) row(r int32) []float64 {
	if k := a.slot[r]; k > 0 {
		return a.vecs[k-1]
	}
	return nil
}

// sortedRows returns the touched row indices in ascending order. The
// returned slice is the accumulator's own touched list, sorted in place,
// and is valid until the next claim or reset.
func (a *rowAccumulator) sortedRows() []int32 {
	slices.Sort(a.touched)
	return a.touched
}

// claim returns the row's accumulator vector, taking the next free vector
// on the row's first touch of the epoch. A first-touch vector is DIRTY —
// it still holds whatever the previous epoch left in it — so the caller
// must fully overwrite it before (or while) accumulating into it.
func (a *rowAccumulator) claim(row int32) (dst []float64, first bool) {
	if k := a.slot[row]; k > 0 {
		return a.vecs[k-1], false
	}
	n := len(a.touched)
	if n == len(a.vecs) {
		a.vecs = append(a.vecs, make([]float64, a.dim))
	}
	a.touched = append(a.touched, row)
	a.slot[row] = int32(n + 1)
	return a.vecs[n], true
}

// addScaled accumulates f*g into the row's running sum, overwriting the
// claimed vector on the row's first touch of the epoch. Each product
// f*g[d] is rounded on its own before the add — the rounding an in-place
// Scale of g followed by an add would perform — so applying a deferred
// clip factor here is bit-identical to clip-then-accumulate.
func (a *rowAccumulator) addScaled(row int32, f float64, g []float64) {
	dst, first := a.claim(row)
	dst = dst[:len(g)]
	if first {
		for d, v := range g {
			dst[d] = f * v
		}
		return
	}
	for d, v := range g {
		t := f * v
		dst[d] += t
	}
}
