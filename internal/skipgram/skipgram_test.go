package skipgram

import (
	"math"
	"testing"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/xrand"
)

// dense returns w as the dense matrix these tests build their models on.
func dense(w mathx.Mat) *mathx.Matrix { return w.(*mathx.Matrix) }

func testModel(t *testing.T, n, dim int) *Model {
	t.Helper()
	m := New(n, dim, xrand.New(7))
	// Give Wout non-zero values so gradients flow both ways.
	r := xrand.New(8)
	for i := range m.Wout.(*mathx.Matrix).Data {
		m.Wout.(*mathx.Matrix).Data[i] = (r.Float64() - 0.5) * 0.5
	}
	return m
}

func TestNewInitialization(t *testing.T) {
	m := New(10, 16, xrand.New(1))
	if m.NumNodes() != 10 || m.Dim != 16 {
		t.Fatalf("shape: %d nodes, dim %d", m.NumNodes(), m.Dim)
	}
	bound := 0.5 / 16
	for _, v := range m.Win.(*mathx.Matrix).Data {
		if v < -bound || v >= bound {
			t.Fatalf("Win init %g outside [-%g, %g)", v, bound, bound)
		}
	}
	var woutNorm float64
	for _, v := range m.Wout.(*mathx.Matrix).Data {
		if v < -bound || v >= bound {
			t.Fatalf("Wout init %g outside [-%g, %g)", v, bound, bound)
		}
		woutNorm += v * v
	}
	if woutNorm == 0 {
		t.Fatal("Wout should start at small random values, not zero")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 0) did not panic")
		}
	}()
	New(0, 0, xrand.New(1))
}

func TestLossPositiveAndWeighted(t *testing.T) {
	m := testModel(t, 6, 8)
	ex := Example{I: 0, J: 1, Negs: []int32{2, 3}, W: 1}
	l1 := m.Loss(ex)
	if l1 <= 0 {
		t.Fatalf("loss %g should be positive (−log σ terms)", l1)
	}
	ex.W = 2.5
	if l2 := m.Loss(ex); math.Abs(l2-2.5*l1) > 1e-12 {
		t.Errorf("loss not linear in p_ij: %g vs %g", l2, 2.5*l1)
	}
	ex.W = 0
	if l0 := m.Loss(ex); l0 != 0 {
		t.Errorf("zero-weight loss = %g, want 0", l0)
	}
}

// TestGradientsMatchFiniteDifferences verifies Eq. (7) and Eq. (8) against
// numerical differentiation of the loss.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	m := testModel(t, 8, 6)
	ex := Example{I: 2, J: 5, Negs: []int32{0, 3, 7}, W: 1.7}
	var g Grads
	m.LossGradients(ex, &g)

	const h = 1e-6
	numGrad := func(param []float64, d int) float64 {
		orig := param[d]
		param[d] = orig + h
		lp := m.Loss(ex)
		param[d] = orig - h
		lm := m.Loss(ex)
		param[d] = orig
		return (lp - lm) / (2 * h)
	}

	// ∂L/∂v_i (Win row I).
	vi := dense(m.Win).Row(int(ex.I))
	for d := 0; d < m.Dim; d++ {
		want := numGrad(vi, d)
		if math.Abs(g.GIn[d]-want) > 1e-5 {
			t.Errorf("GIn[%d] = %g, numeric %g", d, g.GIn[d], want)
		}
	}
	// ∂L/∂v_j and ∂L/∂v_n (Wout rows), written out from their rank-1
	// form before the finite differences perturb v_i.
	out := make([][]float64, len(g.OutRows))
	for t2 := range out {
		out[t2] = g.OutGrad(t2, make([]float64, m.Dim))
	}
	for t2, row := range g.OutRows {
		vr := dense(m.Wout).Row(int(row))
		for d := 0; d < m.Dim; d++ {
			want := numGrad(vr, d)
			if math.Abs(out[t2][d]-want) > 1e-5 {
				t.Errorf("OutGrad(%d)[%d] (node %d) = %g, numeric %g",
					t2, d, row, out[t2][d], want)
			}
		}
	}
}

func TestGradientsSparsity(t *testing.T) {
	m := testModel(t, 10, 4)
	ex := Example{I: 1, J: 2, Negs: []int32{5}, W: 1}
	var g Grads
	m.LossGradients(ex, &g)
	if g.InRow != 1 {
		t.Errorf("InRow = %d, want 1", g.InRow)
	}
	if len(g.OutRows) != 2 || g.OutRows[0] != 2 || g.OutRows[1] != 5 {
		t.Errorf("OutRows = %v, want [2 5]", g.OutRows)
	}
}

func TestGradientsBufferReuse(t *testing.T) {
	m := testModel(t, 10, 4)
	var g Grads
	m.LossGradients(Example{I: 1, J: 2, Negs: []int32{5, 6, 7}, W: 1}, &g)
	first := &g.GIn[0]
	m.LossGradients(Example{I: 3, J: 4, Negs: []int32{8}, W: 1}, &g)
	if &g.GIn[0] != first {
		t.Error("GIn buffer was reallocated")
	}
	if len(g.OutRows) != 2 {
		t.Errorf("OutRows not resized: %v", g.OutRows)
	}
}

// naiveGradients is the reference per-example backward pass — one Dot,
// one standalone Sigmoid per row, and each Wout row-gradient written out
// as fl(coef·v_i) — kept as the oracle for LossGradients.
func naiveGradients(m *Model, ex Example) (gIn []float64, outRows []int32, gOut [][]float64) {
	vi := dense(m.Win).Row(int(ex.I))
	gIn = make([]float64, m.Dim)
	emit := func(row int32, coef float64) {
		vr := dense(m.Wout).Row(int(row))
		mathx.AXPY(coef, vr, gIn)
		g := make([]float64, m.Dim)
		for d, v := range vi {
			g[d] = coef * v
		}
		outRows = append(outRows, row)
		gOut = append(gOut, g)
	}
	emit(ex.J, ex.W*(mathx.Sigmoid(mathx.Dot(dense(m.Wout).Row(int(ex.J)), vi))-1))
	for _, n := range ex.Negs {
		emit(n, ex.W*mathx.Sigmoid(mathx.Dot(dense(m.Wout).Row(int(n)), vi)))
	}
	return gIn, outRows, gOut
}

// TestLossGradientsMatchesComposition pins the one-pass contract: the
// forward+backward — its shared-exp σ/log σ and its rank-1 Wout rows —
// must be BIT-identical to the separate Loss call plus the naive per-row
// gradient pass, at even and odd negative counts including k = 0.
func TestLossGradientsMatchesComposition(t *testing.T) {
	m := testModel(t, 12, 7) // odd dim exercises the reductions' scalar tails
	for _, negs := range [][]int32{nil, {4}, {4, 6}, {4, 6, 8}, {4, 6, 8, 10, 11}} {
		ex := Example{I: 2, J: 3, Negs: negs, W: 1.3}
		var got Grads
		gotLoss := m.LossGradients(ex, &got)
		gIn, outRows, gOut := naiveGradients(m, ex)
		wantLoss := m.Loss(ex)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Errorf("k=%d: LossGradients loss %g != Loss %g", len(negs), gotLoss, wantLoss)
		}
		for d := range got.GIn {
			if math.Float64bits(got.GIn[d]) != math.Float64bits(gIn[d]) {
				t.Errorf("k=%d: GIn[%d] got %g != naive %g", len(negs), d, got.GIn[d], gIn[d])
			}
		}
		row := make([]float64, m.Dim)
		for r := range got.OutRows {
			if got.OutRows[r] != outRows[r] {
				t.Fatalf("k=%d: OutRows[%d] = %d, want %d", len(negs), r, got.OutRows[r], outRows[r])
			}
			got.OutGrad(r, row)
			for d := range row {
				if math.Float64bits(row[d]) != math.Float64bits(gOut[r][d]) {
					t.Errorf("k=%d: OutGrad(%d)[%d] got %g != naive %g",
						len(negs), r, d, row[d], gOut[r][d])
				}
			}
		}
	}
}

func TestGradientStepDecreasesLoss(t *testing.T) {
	m := testModel(t, 6, 8)
	ex := Example{I: 0, J: 1, Negs: []int32{2, 3, 4}, W: 1}
	before := m.Loss(ex)
	var g Grads
	m.LossGradients(ex, &g)
	const lr = 0.1
	// Write the Wout rows out first: their rank-1 form reads v_i, which
	// the Win step moves.
	row := make([]float64, m.Dim)
	for t2, r := range g.OutRows {
		mathx.AXPY(-lr, g.OutGrad(t2, row), dense(m.Wout).Row(int(r)))
	}
	mathx.AXPY(-lr, g.GIn, dense(m.Win).Row(int(ex.I)))
	after := m.Loss(ex)
	if after >= before {
		t.Errorf("gradient step did not decrease loss: %g -> %g", before, after)
	}
}

func TestScore(t *testing.T) {
	m := testModel(t, 4, 3)
	copy(dense(m.Win).Row(0), []float64{1, 2, 3})
	copy(dense(m.Wout).Row(1), []float64{4, 5, 6})
	if got := m.Score(0, 1); got != 32 {
		t.Errorf("Score = %g, want 32", got)
	}
	copy(dense(m.Win).Row(1), []float64{1, 0, 1})
	if got := m.InputScore(0, 1); got != 4 {
		t.Errorf("InputScore = %g, want 4", got)
	}
}

// TestTheorem3FixedPoint verifies the Theorem 3 optimum: minimizing the
// expected objective Eq. (13) — positives weighted p_ij, negatives weighted
// k·min(P) — drives x_ij = v_i·v_j to log(p_ij / (k·min(P))).
func TestTheorem3FixedPoint(t *testing.T) {
	const (
		n   = 4
		dim = 8 // dim >= n so any Gram matrix is realizable
		k   = 3
	)
	// A proximity with distinct positive values on all pairs.
	p := [][]float64{
		{0, 2.0, 0.5, 1.0},
		{2.0, 0, 1.5, 0.8},
		{0.5, 1.5, 0, 1.2},
		{1.0, 0.8, 1.2, 0},
	}
	minP := 0.5
	m := New(n, dim, xrand.New(3))
	r := xrand.New(4)
	for i := range m.Wout.(*mathx.Matrix).Data {
		m.Wout.(*mathx.Matrix).Data[i] = (r.Float64() - 0.5) * 0.1
	}
	var g Grads
	gj := make([]float64, dim)
	for iter := 0; iter < 40000; iter++ {
		lr := 0.1
		if iter > 20000 {
			lr = 0.02
		}
		if iter > 35000 {
			lr = 0.005
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if i == j {
					continue
				}
				// Eq. (13) couples every ordered pair (i, j) through a
				// positive term weighted p_ij and an expected negative term
				// weighted k·min(P). Both gradients are evaluated at the
				// same parameter state, then applied together.
				pos := Example{I: i, J: j, Negs: nil, W: p[i][j]}
				m.LossGradients(pos, &g)
				// Negative part at the same state: coefficient
				// k·min(P)·σ(x_ij) on (v_j → ∂v_i) and (v_i → ∂v_j).
				cn := float64(k) * minP * mathx.Sigmoid(m.Score(int(i), int(j)))
				vi := dense(m.Win).Row(int(i))
				vj := dense(m.Wout).Row(int(j))
				g.OutGrad(0, gj)
				mathx.AXPY(cn, vj, g.GIn)
				mathx.AXPY(cn, vi, gj)
				mathx.AXPY(-lr, g.GIn, vi)
				mathx.AXPY(-lr, gj, vj)
			}
		}
	}
	maxErr := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want := math.Log(p[i][j] / (float64(k) * minP))
			got := m.Score(i, j)
			if e := math.Abs(got - want); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 0.05 {
		t.Errorf("Theorem 3 fixed point violated: max |x_ij − log(p_ij/(k·minP))| = %g", maxErr)
	}
}
