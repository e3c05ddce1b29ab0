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
// each landing in its own 64 KiB chunk, and no more chunks than the
// matrix has (the README "Capacity planning" section works the formula
// through).
func (c Config) MinMemoryBudget(nodes int) int64 {
	return mathx.MinSpillBudget(nodes, c.Dim, c.BatchSize) +
		mathx.MinSpillBudget(nodes, c.Dim, (c.K+1)*c.BatchSize)
}

// spillShares splits MemoryBudget between Win and Wout for a spilled run
// on `nodes` nodes. Each matrix first gets the floor its per-epoch pin set
// needs (B center rows vs (K+1)·B context rows), then half the surplus;
// no share exceeds the budget that keeps its whole matrix resident, and
// what one matrix cannot use goes to the other.
func (c Config) spillShares(nodes int) (win, wout int64) {
	minWin := mathx.MinSpillBudget(nodes, c.Dim, c.BatchSize)
	minWout := mathx.MinSpillBudget(nodes, c.Dim, (c.K+1)*c.BatchSize)
	full := mathx.SpillFullBytes(nodes, c.Dim)
	win = min(minWin+(c.MemoryBudget-minWin-minWout)/2, full)
	wout = min(c.MemoryBudget-win, full)
	win = min(c.MemoryBudget-wout, full)
	return win, wout
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
	// NaN passes every sign check below, and an infinite step, clip or
	// noise multiplier trains to non-finite coordinates.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"learning rate", c.LearningRate}, {"clip threshold", c.Clip}, {"noise multiplier", c.Sigma},
		{"target epsilon", c.Epsilon}, {"target delta", c.Delta},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s %g must be finite", f.name, f.v)
		}
	}
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
	// published embedding matrix (Definition 5). Wout is training state:
	// Shrink drops it (Model.Wout = nil), as the service does for every
	// result it keeps, after the artifact, which stores both, is written.
	Model *skipgram.Model
	// Epochs is the number of completed training epochs (the EpochsRun of
	// a partial, canceled run).
	Epochs int
	// Stopped records why the run ended: StopCompleted, StopBudget, or —
	// for TrainContext runs whose context was canceled — StopCanceled.
	Stopped StopReason
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
// callers use Rows, which stays O(window) on every tier. Embedding
// panics with the *mathx.SpillError if the spill tier's backing file
// failed (SpillErr), rather than return rows it could not read; Rows
// returns that error instead.
func (r *Result) Embedding() *mathx.Matrix {
	emb := mathx.Materialize(r.Model.Win)
	if err := mathx.MatErr(r.Model.Win); err != nil {
		panic(err)
	}
	return emb
}

// Rows returns rows [lo, hi) of the published embedding — the in-memory
// half of the partial-embedding serving contract (the artifact store's
// LoadRows is the on-disk half). On the dense tier it is an O(1) view
// sharing the result's backing array; on the spill tier it is an O(window)
// copy (mathx.SpillMatrix.ReadRows) that loads no chunk, never a full
// materialization. Results
// are shared across deduplicated submissions, so the view must be treated
// as read-only. An out-of-range window is an error rather than a panic
// (serving layers check the window first and answer 400), and so is a
// spill-tier I/O failure (a *mathx.SpillError; they answer 500).
func (r *Result) Rows(lo, hi int) (*mathx.Matrix, error) {
	win := r.Model.Win
	if lo < 0 || hi < lo || hi > win.NumRows() {
		return nil, fmt.Errorf("core: row window [%d, %d) outside embedding with %d rows", lo, hi, win.NumRows())
	}
	if d, ok := win.(*mathx.Matrix); ok {
		return d.RowRange(lo, hi), nil
	}
	out := mathx.NewMatrix(hi-lo, win.NumCols())
	win.ReadRows(out.Data, lo)
	if err := mathx.MatErr(win); err != nil {
		return nil, err
	}
	return out, nil
}

// SpillErr returns the first I/O error of the spill tier under r's model
// (a *mathx.SpillError), nil if none or on the dense tier. TrainContext
// checks it at every epoch's pin barrier, after every checkpoint capture
// and before it returns; callers that go on to read a spilled result
// (digest, artifact write) check it again afterwards.
func (r *Result) SpillErr() error {
	if err := mathx.MatErr(r.Model.Win); err != nil {
		return err
	}
	return mathx.MatErr(r.Model.Wout)
}

// FlushSpill writes the dirty rows of a spilled result's Win and Wout
// back to their spill files (mathx.SpillMatrix.Flush), so a later Shrink
// does no I/O. It returns the first spill I/O error (a *mathx.SpillError).
// No-op on the dense tier.
func (r *Result) FlushSpill() error {
	for _, m := range []mathx.Mat{r.Model.Win, r.Model.Wout} {
		if sm, ok := m.(*mathx.SpillMatrix); ok {
			if err := sm.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Shrink reduces a result that will only be read from now on to what it
// publishes, Win. On the spill tier Win writes its dirty rows back and
// drops its resident slabs (mathx.SpillMatrix.Shrink); no read of it
// loads one again. Then
// Wout, training state that is never served, is dropped on either tier
// (Model.Wout = nil; a spilled Wout's file is closed, its dirty rows
// unwritten), so Model.Score and Model.Loss no longer apply: persist the
// result first. Shrink returns the first spill I/O error of either
// matrix (a *mathx.SpillError), after which the result's rows cannot be
// trusted, and then keeps Wout; after a FlushSpill that succeeded, with
// no row written since, it does no I/O and cannot fail. A second Shrink
// does nothing.
func (r *Result) Shrink() error {
	if sm, ok := r.Model.Win.(*mathx.SpillMatrix); ok {
		if err := sm.Shrink(); err != nil {
			return err
		}
	}
	if sm, ok := r.Model.Wout.(*mathx.SpillMatrix); ok {
		if err := sm.Err(); err != nil {
			return err
		}
		sm.Close()
	}
	r.Model.Wout = nil
	return nil
}

// CloseSpill closes the spill tier's backing files of a result that will
// not be read again, so a failed job frees its disk blocks at once
// instead of at a finalizer. No-op on the dense tier.
func (r *Result) CloseSpill() {
	for _, m := range []mathx.Mat{r.Model.Win, r.Model.Wout} {
		if sm, ok := m.(*mathx.SpillMatrix); ok {
			sm.Close()
		}
	}
}

// Train runs SE-PrivGEmb (Algorithm 2) — or its non-private SE-GEmb
// counterpart when cfg.Private is false — on g with the given structure
// preference. The proximity argument supplies the per-edge weights p_ij of
// the Eq. (5) objective.
//
// With cfg.Workers > 1 subgraph generation, the per-epoch gradient stage
// and the noise/update stage all run on panicx.Blocks; the result is
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

// clipFactor is the Eq. (3) factor for a vector of squared ℓ2 norm sq: 1
// when sq ≤ c², c/√sq otherwise.
func clipFactor(sq, c float64) float64 {
	if sq <= c*c {
		return 1
	}
	return c / math.Sqrt(sq)
}

// rowGroups lists one matrix's touched rows for an epoch, each with its
// contributions — positions into the epoch's per-contribution row list
// (engine.touchRows) — in batch order. build is a counting sort over at
// most (K+1)·B entries: count per row, prefix-sum into segments, then one
// stable placement pass. The buffers are sized once, and forgetting an
// epoch costs its touched-row count, not |V|.
type rowGroups struct {
	id       []int32 // id[row] = 1 + the row's index in rows; 0 when untouched
	rows     []int32 // touched rows in first-touch order
	start    []int32 // row n's contributions are contribs[start[n]:start[n+1]]
	contribs []int32
}

// build groups keys — the row of every contribution, in batch order — for
// an nRows-row matrix.
func (g *rowGroups) build(keys []int32, nRows int) {
	if len(g.id) != nRows {
		g.id = make([]int32, nRows)
	}
	for _, r := range g.rows {
		g.id[r] = 0
	}
	g.rows = g.rows[:0]
	for _, r := range keys {
		if g.id[r] == 0 {
			g.rows = append(g.rows, r)
			g.id[r] = int32(len(g.rows))
		}
	}
	// start[n+1] counts row n's contributions, then the prefix sum turns
	// start[n] into the row's segment offset.
	g.start = slices.Grow(g.start[:0], len(g.rows)+1)[:len(g.rows)+1]
	clear(g.start)
	for _, r := range keys {
		g.start[g.id[r]]++
	}
	for n := 1; n < len(g.start); n++ {
		g.start[n] += g.start[n-1]
	}
	// Place each contribution at its row's next free position; start[n]
	// advances to row n's end, so shifting right by one restores offsets.
	g.contribs = slices.Grow(g.contribs[:0], len(keys))[:len(keys)]
	for p, r := range keys {
		n := g.id[r] - 1
		g.contribs[g.start[n]] = int32(p)
		g.start[n]++
	}
	copy(g.start[1:], g.start)
	g.start[0] = 0
}

// group returns the n-th touched row's contributions in batch order.
func (g *rowGroups) group(n int) []int32 {
	return g.contribs[g.start[n]:g.start[n+1]]
}

// of returns row's contributions in batch order, or nil when the epoch
// did not touch it.
func (g *rowGroups) of(row int32) []int32 {
	if n := g.id[row]; n > 0 {
		return g.group(int(n - 1))
	}
	return nil
}
