// Package skipgram implements the skip-gram-with-negative-sampling model of
// Fig. 1 and its structure-weighted objective Eq. (5):
//
//	L_nov(vi, vj, p_ij) = −p_ij·log σ(vj·vi) − p_ij·Σ_n log σ(−vn·vi)
//
// together with the analytic gradients of Eq. (7) (input matrix Win, via the
// one-hot hidden layer) and Eq. (8) (output matrix Wout, touched only at the
// positive node and the k negatives). The sparsity of these gradients — one
// row of Win and k+1 rows of Wout per example — is exactly what the paper's
// non-zero perturbation mechanism exploits.
package skipgram

import (
	"fmt"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// Model holds the two trainable embedding matrices. Win rows are the
// central vectors v_i (the published embedding); Wout rows are the context
// vectors v_j. The matrices are mathx.Mat so the same gradient kernels run
// over the dense in-memory tier and the budget-bounded spill tier
// (mathx.SpillMatrix, selected by core.Config.MemoryBudget) without a
// second numerical path.
type Model struct {
	Dim  int
	Win  mathx.Mat
	Wout mathx.Mat
}

// New allocates a dense model for n nodes with r-dimensional embeddings,
// initialized by NewWith.
func New(n, r int, rng *xrand.RNG) *Model {
	if n < 1 || r < 1 {
		panic(fmt.Sprintf("skipgram: New(%d, %d) invalid size", n, r))
	}
	return NewWith(mathx.NewMatrix(n, r), mathx.NewMatrix(n, r), rng)
}

// NewWith wraps caller-provided (same-shape) matrices — dense or
// spill-backed — and initializes both uniformly in [−0.5/r, 0.5/r).
// (word2vec zeroes Wout, but with a zero context matrix the published Win
// receives no gradient until Wout warms up — wasting most of the paper's
// tightly budgeted epoch count, so both sides start at the same small
// scale.) Initialization draws in row-major order — Win fully, then Wout
// — a spill chunk of rows per WriteRows, the draw order the former
// dense-only loop took over the backing arrays, so a spill-backed model
// consumes the run RNG identically to a dense one and the bit-identity
// contract holds across storage tiers.
func NewWith(win, wout mathx.Mat, rng *xrand.RNG) *Model {
	r := win.NumCols()
	if win.NumRows() != wout.NumRows() || r != wout.NumCols() {
		panic(fmt.Sprintf("skipgram: NewWith shapes %dx%d vs %dx%d",
			win.NumRows(), r, wout.NumRows(), wout.NumCols()))
	}
	m := &Model{Dim: r, Win: win, Wout: wout}
	scale := 1 / float64(r)
	n, step := win.NumRows(), mathx.SpillChunkRows(r)
	buf := make([]float64, min(step, n)*r)
	for _, w := range []mathx.Mat{win, wout} {
		for lo := 0; lo < n; lo += step {
			b := buf[:(min(lo+step, n)-lo)*r]
			for d := range b {
				b[d] = (rng.Float64() - 0.5) * scale
			}
			w.WriteRows(lo, b)
		}
	}
	return m
}

// NumNodes returns the number of embedded nodes.
func (m *Model) NumNodes() int { return m.Win.NumRows() }

// Example is one training sample: the positive pair (I, J), its negative
// nodes, and the structure-preference weight W = p_ij from Eq. (5).
type Example struct {
	I, J int32
	Negs []int32
	W    float64
}

// Grads holds the sparse gradient of L_nov for a single example: one row
// against Win and 1+len(Negs) rows against Wout. By Eq. (8) every Wout
// row-gradient is rank-1 — ∂L/∂v_n = c_n·v_I — so Grads keeps the k+1
// coefficients and a view of v_I instead of k+1 materialized rows; OutGrad
// writes one out when a caller needs it. Buffers are reused across calls
// to avoid per-example allocation in the training loop.
type Grads struct {
	InRow int       // row index into Win (the center node I)
	GIn   []float64 // ∂L/∂v_I, length Dim
	// GInSq is mathx.Norm2Sq(GIn), bit for bit, summed in the pass that
	// writes GIn.
	GInSq float64
	// VI is the Win row v_I the pass read — a view, not a copy, so it is
	// valid until that row is next written (or, on the spill tier,
	// unpinned).
	VI []float64

	OutRows []int32   // J followed by the negatives
	Coef    []float64 // c_t with ∂L/∂v_{OutRows[t]} = Coef[t]·v_I

	out [][]float64 // views of the Wout rows OutRows, for one pass
}

// Ensure sizes the buffers for dim and k negatives. LossGradients calls
// it on every invocation, so callers normally never need to; parallel
// training engines call it up front to pre-size one Grads per batch slot
// outside the hot loop, keeping the gradient stage allocation-free.
func (g *Grads) Ensure(dim, k int) {
	if cap(g.GIn) < dim {
		g.GIn = make([]float64, dim)
	}
	g.GIn = g.GIn[:dim]
	need := k + 1
	if cap(g.OutRows) < need {
		g.OutRows = make([]int32, need)
	}
	if cap(g.Coef) < need {
		g.Coef = make([]float64, need)
	}
	if cap(g.out) < need {
		g.out = make([][]float64, need)
	}
	g.OutRows = g.OutRows[:need]
	g.Coef = g.Coef[:need]
	g.out = g.out[:need]
}

// OutGrad writes the t-th Wout row-gradient ∂L/∂v_{OutRows[t]} into dst
// (length Dim) and returns it: dst[d] = Coef[t]·VI[d], one rounding per
// coordinate.
func (g *Grads) OutGrad(t int, dst []float64) []float64 {
	c := g.Coef[t]
	dst = dst[:len(g.VI)]
	for d, v := range g.VI {
		dst[d] = c * v
	}
	return dst
}

// LossGradients computes L_nov AND its Eq. (7)/(8) gradients at the
// current parameters into g, in one forward+backward pass:
//
//	∂L/∂v_i = p_ij·[ (σ(v_j·v_i) − 1)·v_j + Σ_n σ(v_n·v_i)·v_n ]
//	∂L/∂v_j = p_ij·(σ(v_j·v_i) − 1)·v_i
//	∂L/∂v_n = p_ij·σ(v_n·v_i)·v_i
//
// which is the indicator form Σ_{n=0..k} (σ(v_n·v_i) − I_{v_j}[v_n])·v_n of
// the paper with n = 0 denoting the positive node. It takes the views of
// v_I and the example's k+1 Wout rows from a dense model and runs
// RowLossGradients on them. It serves tests and benchmarks that hold a
// Model and no row views. The training engine takes its views once per
// epoch instead — pinned on the spill tier, before the gradient stage —
// and calls RowLossGradients directly.
func (m *Model) LossGradients(ex Example, g *Grads) float64 {
	g.Ensure(m.Dim, len(ex.Negs))
	win, wout := m.Win.(*mathx.Matrix), m.Wout.(*mathx.Matrix)
	vi := win.Row(int(ex.I))
	g.out[0] = wout.Row(int(ex.J))
	for t, n := range ex.Negs {
		g.out[t+1] = wout.Row(int(n))
	}
	return RowLossGradients(ex, vi, g.out, g)
}

// RowLossGradients is the per-example pass of LossGradients over row
// views the caller resolved: vi is v_I (row ex.I of Win) and out holds
// the k+1 Wout rows, v_J then the negatives in sample order. It takes
// all k+1 dots (mathx.DotRows), then per row the loss term and the
// coefficient c_t from one exponential (mathx.SigmoidLogs) for both σ
// and log σ, then GIn = Σ_t c_t·v_t and its squared norm in one pass
// (mathx.AXPYRows). g.VI keeps vi. Every view must stay valid for the
// whole pass, and vi for as long as g.VI is read, as dense rows and
// pinned spill-tier rows do.
//
// Numerics: each dot is mathx.Dot's, the loss terms accumulate in the
// same order as the standalone Loss — positive first, then negatives in
// sample order — and GIn's adds in the order of Zero followed by one AXPY
// per row, so the pass is bit-identical to Loss followed by the naive
// per-row gradient pass (pinned by TestLossGradientsMatchesComposition).
func RowLossGradients(ex Example, vi []float64, out [][]float64, g *Grads) float64 {
	if len(out) != len(ex.Negs)+1 {
		panic(fmt.Sprintf("skipgram: %d Wout row views for %d negatives", len(out), len(ex.Negs)))
	}
	g.Ensure(len(vi), len(ex.Negs))
	g.InRow = int(ex.I)
	g.VI = vi
	g.OutRows[0] = ex.J
	copy(g.OutRows[1:], ex.Negs)
	mathx.DotRows(g.Coef, vi, out) // the dots, replaced by c_t below

	// Positive node (n = 0 in Eq. (7): indicator is 1).
	sig, logSig, _ := mathx.SigmoidLogs(g.Coef[0])
	g.Coef[0] = ex.W * (sig - 1)
	loss := -logSig

	// Negative nodes (indicator is 0).
	for t := 1; t < len(g.Coef); t++ {
		sig, _, logSigNeg := mathx.SigmoidLogs(g.Coef[t])
		g.Coef[t] = ex.W * sig
		loss -= logSigNeg
	}
	g.GInSq = mathx.AXPYRows(g.GIn, g.Coef, out)
	return ex.W * loss
}

// Loss returns L_nov(v_i, v_j, p_ij) for the example at the current
// parameters of a dense model.
func (m *Model) Loss(ex Example) float64 {
	win, wout := m.Win.(*mathx.Matrix), m.Wout.(*mathx.Matrix)
	vi := win.Row(int(ex.I))
	l := -mathx.LogSigmoid(mathx.Dot(wout.Row(int(ex.J)), vi))
	for _, n := range ex.Negs {
		l -= mathx.LogSigmoid(-mathx.Dot(wout.Row(int(n)), vi))
	}
	return ex.W * l
}

// Score returns a dense model's inner-product score v_i·v_j (input·output),
// the quantity x_ij whose optimum Theorem 3 characterizes.
func (m *Model) Score(i, j int) float64 {
	return mathx.Dot(m.Win.(*mathx.Matrix).Row(i), m.Wout.(*mathx.Matrix).Row(j))
}

// InputScore returns a dense model's symmetric score v_i·v_j over Win
// only, used by downstream tasks that consume the published embedding.
func (m *Model) InputScore(i, j int) float64 {
	return mathx.Dot(m.Win.(*mathx.Matrix).Row(i), m.Win.(*mathx.Matrix).Row(j))
}
