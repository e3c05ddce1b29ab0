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
// operation that may evict (see SpillMatrix.Row for the exact contract —
// the training engine pins each epoch's touched rows before its parallel
// stages, so views live exactly as long as the stage that reads them).
type Mat interface {
	NumRows() int
	NumCols() int
	Row(i int) []float64
}

// ViewRower is the optional read-only access an out-of-core Mat provides:
// ViewRow is Row without the write-back bookkeeping, so streaming readers
// (digests, artifact encoders) do not force every visited row to be
// rewritten to the backing file on eviction.
type ViewRower interface {
	ViewRow(i int) []float64
}

// ReadRow returns row i of m for reading, via ViewRow when m offers it.
// Callers must not mutate the returned slice.
func ReadRow(m Mat, i int) []float64 {
	if v, ok := m.(ViewRower); ok {
		return v.ViewRow(i)
	}
	return m.Row(i)
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
		copy(out.Row(i), ReadRow(m, i))
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
		copy(out[i*cols:(i+1)*cols], ReadRow(m, i))
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
	for i := 0; i < m.NumRows(); i++ {
		for _, x := range ReadRow(m, i) {
			h.Word(math.Float64bits(x))
		}
	}
	return h.Sum()
}
