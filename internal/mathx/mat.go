package mathx

import "math"

// Mat is the row-major float64 matrix abstraction behind the training
// engine's weight storage. The dense *Matrix is the default implementation;
// *SpillMatrix (spill.go) is the out-of-core one, keeping only an LRU
// window of rows resident over a backing file. Extracting the interface is
// what lets every hot loop — the gradient pass and the replay-and-apply
// update — run unchanged over either tier (DESIGN.md §15).
//
// Row returns a MUTABLE view of one row. For a dense matrix the view is
// permanently valid; for a spill-backed matrix it is valid until the next
// operation that may evict, after which it may show another row (see
// SpillMatrix for the exact contract — the training engine takes its
// views of each epoch's touched rows once, pinned, before its parallel
// stages, and the stages call no Row; readers of a finished, shared
// matrix go through ReadRow).
type Mat interface {
	NumRows() int
	NumCols() int
	Row(i int) []float64
}

// ReadRow returns row i of m for reading: on the spill tier a copy in
// scratch, which must hold NumCols values, taken by SpillMatrix.CopyRow
// under the matrix's own lock, so the read stays correct while other
// readers fault, evict and recycle slabs (a Row view carries no such
// guarantee) and does not mark the row for write-back; otherwise the row
// itself (the dense tier, no copy). Callers must not mutate the result.
func ReadRow(m Mat, i int, scratch []float64) []float64 {
	if sm, ok := m.(*SpillMatrix); ok {
		sm.CopyRow(scratch, i)
		return scratch
	}
	return m.Row(i)
}

// MatErr returns the sticky I/O error of an out-of-core m (a
// *SpillError), nil for a dense matrix or a healthy spill matrix. A
// caller that copied rows out of m through ReadRow checks it afterwards:
// a failed read copies zeros, not an error.
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

// Materialize returns m as a dense *Matrix: m itself when already dense
// (O(1)), otherwise a fresh row-by-row copy — an O(rows·cols) allocation
// that defeats the point of a spill-backed matrix, so serving paths prefer
// windowed reads (ReadRows, Result.Rows) and reserve this for callers that
// genuinely need the whole matrix in memory.
func Materialize(m Mat) *Matrix {
	if d, ok := m.(*Matrix); ok {
		return d
	}
	out := NewMatrix(m.NumRows(), m.NumCols())
	for i := 0; i < m.NumRows(); i++ {
		copy(out.Row(i), ReadRow(m, i, out.Row(i)))
	}
	return out
}

// CopyOut returns a fresh row-major copy of m's values — unlike
// Materialize it copies even for a dense matrix, so the caller owns the
// result (checkpoint capture relies on this: the snapshot must stay frozen
// while training keeps mutating the live matrix).
func CopyOut(m Mat) []float64 {
	rows, cols := m.NumRows(), m.NumCols()
	out := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		dst := out[i*cols : (i+1)*cols]
		copy(dst, ReadRow(m, i, dst))
	}
	return out
}

// CopyIntoMat writes the row-major values of src into m row by row — the
// inverse of CopyOut, used to restore a checkpoint into whichever storage
// tier the resumed run selected. Panics on shape mismatch.
func CopyIntoMat(m Mat, src []float64) {
	rows, cols := m.NumRows(), m.NumCols()
	if len(src) != rows*cols {
		panic("mathx: CopyInto length mismatch")
	}
	for i := 0; i < rows; i++ {
		copy(m.Row(i), src[i*cols:(i+1)*cols])
	}
}

// DigestMat folds m's row-major float64 bit patterns into the FNV-1a
// embedding-identity digest. For a dense matrix it equals
// DigestFloat64s(m.Data) exactly; for a spill-backed matrix it streams row
// by row in the same order at O(window) memory, so the hash of a spilled
// run is bit-comparable to its in-memory twin.
func DigestMat(m Mat) uint64 {
	if d, ok := m.(*Matrix); ok {
		return DigestFloat64s(d.Data)
	}
	h := NewFNV64()
	scratch := make([]float64, m.NumCols())
	for i := 0; i < m.NumRows(); i++ {
		for _, x := range ReadRow(m, i, scratch) {
			h.Word(math.Float64bits(x))
		}
	}
	return h.Sum()
}
