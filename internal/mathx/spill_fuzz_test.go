package mathx

import (
	"math"
	"testing"
)

// spillFuzzCols are FuzzSpillRows' row widths: one column, a width that
// leaves the chunk's last 2 floats unused (3), widths whose chunks are
// not a whole number of 8192-float frames (100, 8193, the latter one row
// per chunk) and the training width (128).
var spillFuzzCols = []int{1, 3, 100, 128, 8193}

// FuzzSpillRows runs a random sequence of WriteRows, ReadRows, writes
// through PinViews' views, Unpin, Flush and Shrink over a spill matrix
// and a dense reference, and checks that every read is bit-equal to the
// reference, that the matrix stays within its budget whenever its pins
// leave room, and that a shrunk matrix holds no slab however it is read.
// Windows cross chunk boundaries; budgets run from one chunk to all.
func FuzzSpillRows(f *testing.F) {
	for shape := range spillFuzzCols {
		f.Add(uint8(shape), uint16(700), uint8(0), []byte{0, 0, 0, 9, 1, 0, 0, 40, 2, 3, 1, 1, 0, 2, 5, 6, 1, 0, 0, 200, 3, 4, 0, 9, 9, 9, 1, 0, 3, 60})
		f.Add(uint8(shape), uint16(9000), uint8(3), []byte{2, 9, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 6, 1, 2, 5, 1, 0, 1, 90, 3, 5, 1, 0, 1, 90, 4, 1, 7, 7, 30})
	}
	f.Fuzz(func(t *testing.T, shape uint8, nrows uint16, budget uint8, ops []byte) {
		cols := spillFuzzCols[int(shape)%len(spillFuzzCols)]
		chunkRows := SpillChunkRows(cols)
		rows := 1 + int(nrows)%(8*chunkRows)
		numChunks, stride := spillChunks(rows, cols)
		budgetChunks := 1 + int(budget)%numChunks
		sm, err := NewSpillMatrix(rows, cols, int64(budgetChunks)*stride, "")
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		ref := NewMatrix(rows, cols)

		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		row := func() int { return (next()<<8 | next()) % rows }
		window := func() (lo, n int) {
			lo = row()
			return lo, 1 + next()*chunkRows/64%min(rows-lo, 3*chunkRows)
		}
		bits := uint64(len(ops))*0x9e3779b97f4a7c15 + uint64(cols)
		value := func() float64 { // xorshift64: every bit pattern, NaNs included
			bits ^= bits << 13
			bits ^= bits >> 7
			bits ^= bits << 17
			return math.Float64frombits(bits)
		}
		sameBits := func(what string, lo int, got []float64) {
			t.Helper()
			for k, v := range got {
				if w := ref.Data[lo*cols+k]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: row %d col %d = %#x, want %#x", what, lo+k/cols, k%cols, math.Float64bits(v), math.Float64bits(w))
				}
			}
		}

		type pinSet struct {
			chunks []int32
			views  [][]float64
			rows   []int32
		}
		var open []pinSet
		pinned := func() int { // distinct chunks held by the open pin sets
			seen := map[int32]bool{}
			for _, p := range open {
				for _, c := range p.chunks {
					seen[c] = true
				}
			}
			return len(seen)
		}
		overage := false // a load may have found every resident chunk pinned
		shrunk := false  // Shrink dropped every slab and nothing loaded since
		for step := 0; len(ops) > 0 && step < 64; step++ {
			switch next() % 7 {
			case 0: // WriteRows
				lo, n := window()
				overage = overage || pinned()+1 > budgetChunks
				src := make([]float64, n*cols)
				for k := range src {
					src[k] = value()
				}
				sm.WriteRows(lo, src)
				copy(ref.Data[lo*cols:], src)
				shrunk = false
				if len(open) == 0 && !overage && sm.ResidentBytes() > sm.BudgetBytes() {
					t.Fatalf("step %d: %d resident bytes with no pin, budget %d", step, sm.ResidentBytes(), sm.BudgetBytes())
				}
			case 1: // ReadRows
				lo, n := window()
				dst := make([]float64, n*cols)
				for k := range dst {
					dst[k] = value() // a reused buffer: every value must be overwritten
				}
				sm.ReadRows(dst, lo)
				sameBits("ReadRows", lo, dst)
			case 2: // PinViews, then write through some views
				if len(open) == 3 {
					break
				}
				p := pinSet{rows: make([]int32, 1+next()%4)}
				for k := range p.rows {
					p.rows[k] = int32(row())
				}
				p.views = make([][]float64, len(p.rows))
				if p.chunks, err = sm.PinViews(p.rows, p.views); err != nil {
					t.Fatal(err)
				}
				open = append(open, p)
				overage = overage || pinned() > budgetChunks
				shrunk = false
				for k, r := range p.rows {
					sameBits("PinViews", int(r), p.views[k])
				}
			case 3: // write through a held view, whatever loaded since
				if len(open) == 0 {
					break
				}
				p := open[next()%len(open)]
				k := next() % len(p.rows)
				d := next() % cols
				v := value()
				p.views[k][d] = v
				ref.Data[int(p.rows[k])*cols+d] = v
			case 4: // Unpin the oldest pin set
				if len(open) == 0 {
					break
				}
				sm.Unpin(open[0].chunks)
				open = open[1:]
			case 5:
				if err := sm.Flush(); err != nil {
					t.Fatal(err)
				}
			case 6:
				if err := sm.Shrink(); err != nil {
					t.Fatal(err)
				}
				if len(open) == 0 {
					shrunk = true
				}
			}
			if shrunk && sm.ResidentBytes() != 0 {
				t.Fatalf("step %d: a shrunk matrix holds %d resident bytes", step, sm.ResidentBytes())
			}
			if !overage && sm.MaxResidentBytes() > sm.BudgetBytes() {
				t.Fatalf("step %d: high-water %d resident bytes, budget %d", step, sm.MaxResidentBytes(), sm.BudgetBytes())
			}
		}
		sameBits("CopyOut", 0, CopyOut(sm))
		if got, want := DigestMat(sm), DigestFloat64s(ref.Data); got != want {
			t.Fatalf("DigestMat = %#x, want %#x", got, want)
		}
		if shrunk && sm.ResidentBytes() != 0 {
			t.Fatalf("a shrunk matrix holds %d resident bytes after CopyOut and DigestMat", sm.ResidentBytes())
		}
		if err := sm.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
