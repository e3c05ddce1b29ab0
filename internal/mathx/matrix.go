package mathx

import "fmt"

// Matrix is a dense row-major matrix of float64. It is the storage type for
// skip-gram embedding matrices Win and Wout and for the small MLP layers in
// the baseline models.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: NewMatrix(%d, %d) negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mathx: Row(%d) out of range [0,%d)", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// RowRange returns a view of rows [lo, hi) sharing m's backing array: no
// values are copied, so the window costs O(1) and mutating it mutates m.
// Callers serving shared results must treat the view as read-only.
func (m *Matrix) RowRange(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("mathx: RowRange(%d, %d) outside [0,%d]", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to zero.
func (m *Matrix) Zero() {
	Zero(m.Data)
}

// AddScaled computes m += a*other element-wise.
func (m *Matrix) AddScaled(a float64, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mathx: AddScaled dimension mismatch")
	}
	AXPY(a, other.Data, m.Data)
}

// MulVec computes dst = m·x for a column vector x (len Cols) into dst
// (len Rows).
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mathx: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
}

// MulVecT computes dst = mᵀ·x for x of len Rows into dst of len Cols.
func (m *Matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mathx: MulVecT dimension mismatch")
	}
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		AXPY(x[i], m.Row(i), dst)
	}
}
