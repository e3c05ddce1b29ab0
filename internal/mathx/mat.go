package mathx

import (
	"fmt"
	"iter"
	"math"
)

// Mat is the row-major float64 matrix behind the model's weights: a shape
// plus windowed copies, for the dense *Matrix and the out-of-core
// *SpillMatrix (DESIGN.md §15). ReadRows copies rows [lo,
// lo+len(dst)/NumCols) into dst and WriteRows copies src over rows [lo,
// lo+len(src)/NumCols); a window that is not whole rows inside the matrix
// panics. Neither hands out a view: the training engine takes its views
// once per epoch, the dense matrix's own rows or SpillMatrix.PinViews. On
// the spill tier a failed read copies zeros and sets the sticky error
// MatErr reports, which a caller that copied rows out checks afterwards.
type Mat interface {
	NumRows() int
	NumCols() int
	ReadRows(dst []float64, lo int)
	WriteRows(lo int, src []float64)
}

// windowEnd returns the row after the window of n values from row lo of a
// rows×cols matrix, and panics unless it is whole rows inside the matrix.
func windowEnd(op string, rows, cols, lo, n int) int {
	if lo < 0 || lo > rows || n%cols != 0 || n/cols > rows-lo {
		panic(fmt.Sprintf("mathx: %s of %d values at row %d outside %dx%d", op, n, lo, rows, cols))
	}
	return lo + n/cols
}

// MatErr returns the sticky I/O error of an out-of-core m (a
// *SpillError), nil for a dense matrix or a healthy spill matrix. A
// caller that copied rows out of m checks it afterwards: a failed read
// copies zeros, not an error.
func MatErr(m Mat) error {
	if sm, ok := m.(*SpillMatrix); ok {
		return sm.Err()
	}
	return nil
}

// NumRows implements Mat.
func (m *Matrix) NumRows() int { return m.Rows }

// NumCols implements Mat.
func (m *Matrix) NumCols() int { return m.Cols }

// ReadRows implements Mat.
func (m *Matrix) ReadRows(dst []float64, lo int) {
	hi := windowEnd("ReadRows", m.Rows, m.Cols, lo, len(dst))
	copy(dst, m.Data[lo*m.Cols:hi*m.Cols])
}

// WriteRows implements Mat.
func (m *Matrix) WriteRows(lo int, src []float64) {
	hi := windowEnd("WriteRows", m.Rows, m.Cols, lo, len(src))
	copy(m.Data[lo*m.Cols:hi*m.Cols], src)
}

// Windows yields m's values in row order as windows of whole rows: each
// window's first row and its row-major values, read-only and valid until
// the next window. A dense m yields its data as one window; any other m
// is copied out with ReadRows a spill chunk of rows at a time through one
// buffer, so a pass holds O(chunk) memory and loads no chunk. The caller
// checks MatErr afterwards.
func Windows(m Mat) iter.Seq2[int, []float64] {
	return func(yield func(int, []float64) bool) {
		if d, ok := m.(*Matrix); ok {
			yield(0, d.Data)
			return
		}
		rows, cols, step := m.NumRows(), m.NumCols(), SpillChunkRows(m.NumCols())
		buf := make([]float64, min(step, rows)*cols)
		for lo := 0; lo < rows; lo += step {
			w := buf[:(min(lo+step, rows)-lo)*cols]
			m.ReadRows(w, lo)
			if !yield(lo, w) {
				return
			}
		}
	}
}

// Materialize returns m as a dense *Matrix: m itself when already dense
// (O(1)), otherwise a fresh copy — an O(rows·cols) allocation that
// defeats the point of a spill-backed matrix, so serving paths prefer
// windowed reads (ReadRows, Result.Rows) and reserve this for callers that
// genuinely need the whole matrix in memory.
func Materialize(m Mat) *Matrix {
	if d, ok := m.(*Matrix); ok {
		return d
	}
	return &Matrix{Rows: m.NumRows(), Cols: m.NumCols(), Data: CopyOut(m)}
}

// CopyOut returns a fresh row-major copy of m's values — unlike
// Materialize it copies even for a dense matrix, so the caller owns the
// result (checkpoint capture relies on this: the snapshot must stay frozen
// while training keeps mutating the live matrix).
func CopyOut(m Mat) []float64 {
	cols := m.NumCols()
	out := make([]float64, m.NumRows()*cols)
	for lo, w := range Windows(m) {
		copy(out[lo*cols:], w)
	}
	return out
}

// DigestMat folds m's row-major float64 bit patterns into the FNV-1a
// embedding-identity digest: DigestFloat64s of its values, streamed a
// window at a time (Windows), so the hash of a spilled run is
// bit-comparable to its in-memory twin at O(chunk) memory.
func DigestMat(m Mat) uint64 {
	h := NewFNV64()
	for _, w := range Windows(m) {
		for _, x := range w {
			h.Word(math.Float64bits(x))
		}
	}
	return h.Sum()
}
