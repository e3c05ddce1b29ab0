package mathx

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// fillRow writes a deterministic, row-distinct pattern.
func fillRow(dst []float64, row int) {
	for d := range dst {
		dst[d] = float64(row)*1e3 + float64(d) + 0.25
	}
}

func newTestSpill(t *testing.T, rows, cols int, budget int64) *SpillMatrix {
	t.Helper()
	sm, err := NewSpillMatrix(rows, cols, budget, t.TempDir())
	if err != nil {
		t.Fatalf("NewSpillMatrix: %v", err)
	}
	t.Cleanup(func() { sm.Close() })
	return sm
}

// chunkStride is the byte size of one chunk of a spill matrix with cols
// columns.
func chunkStride(cols int) int64 {
	_, stride := spillChunks(1, cols)
	return stride
}

// fillRows writes fillRow's pattern into rows [lo, hi) with one WriteRows.
func fillRows(sm *SpillMatrix, lo, hi int) {
	src := make([]float64, (hi-lo)*sm.NumCols())
	for i := lo; i < hi; i++ {
		fillRow(src[(i-lo)*sm.NumCols():(i-lo+1)*sm.NumCols()], i)
	}
	sm.WriteRows(lo, src)
}

// readRow returns a copy of row i, read the way shared readers do.
func readRow(sm *SpillMatrix, i int) []float64 {
	dst := make([]float64, sm.NumCols())
	sm.ReadRows(dst, i)
	return dst
}

// touch pins rows and unpins them at once, loading their chunks the way
// an epoch does.
func touch(t *testing.T, sm *SpillMatrix, rows ...int32) {
	t.Helper()
	sm.Unpin(mustPin(t, sm, rows))
}

// mustPin pins rows through PinViews, discarding the views.
func mustPin(t *testing.T, sm *SpillMatrix, rows []int32) []int32 {
	t.Helper()
	pins, err := sm.PinViews(rows, make([][]float64, len(rows)))
	if err != nil {
		t.Fatalf("PinViews: %v", err)
	}
	return pins
}

func TestSpillMatrixRoundTripAcrossEvictions(t *testing.T) {
	const rows, cols = 1000, 16 // chunkRows = 512, 2 chunks... make it spill harder
	// Use a shape with many chunks: 8192/16 = 512 rows/chunk → 2 chunks.
	// Shrink chunk pressure instead by a wide matrix: cols=1024 → 8 rows/chunk.
	sm := newTestSpill(t, rows, 1024, 4*chunkStride(1024))
	if got := sm.NumRows(); got != rows {
		t.Fatalf("NumRows = %d, want %d", got, rows)
	}
	fillRows(sm, 0, rows)
	// Every write beyond 4 resident chunks forced evictions; verify all
	// values survived the write-back/reload cycle.
	for i := 0; i < rows; i++ {
		want := make([]float64, 1024)
		fillRow(want, i)
		got := readRow(sm, i)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("row %d col %d = %v, want %v", i, d, got[d], want[d])
			}
		}
	}
	_ = cols
}

func TestSpillMatrixZeroInitialized(t *testing.T) {
	sm := newTestSpill(t, 300, 64, 1<<20)
	for _, i := range []int{0, 17, 128, 299} {
		for d, v := range readRow(sm, i) {
			if v != 0 {
				t.Fatalf("fresh row %d col %d = %v, want 0", i, d, v)
			}
		}
	}
}

func TestSpillMatrixBudgetEnforced(t *testing.T) {
	const cols = 512 // 16 rows/chunk
	stride := chunkStride(cols)
	sm := newTestSpill(t, 1600, cols, 3*stride) // 100 chunks, 3 resident
	fillRows(sm, 0, 1600)
	// Scattered pins to churn the LRU.
	for i := 0; i < 1600; i += 97 {
		touch(t, sm, int32(i))
	}
	if got := sm.MaxResidentBytes(); got > 3*stride {
		t.Fatalf("MaxResidentBytes = %d, want <= %d", got, 3*stride)
	}
	if got := sm.BudgetBytes(); got != 3*stride {
		t.Fatalf("BudgetBytes = %d, want %d", got, 3*stride)
	}
}

func TestSpillMatrixPinHoldsViews(t *testing.T) {
	const cols = 1024 // 8 rows/chunk
	stride := chunkStride(cols)
	sm := newTestSpill(t, 256, cols, 2*stride)
	// Pin rows in two distinct chunks (the whole budget), then touch a
	// third chunk: the matrix must grow past budget rather than evict a
	// pinned chunk, and the pinned views must stay live.
	views := make([][]float64, 2)
	pins, err := sm.PinViews([]int32{0, 100}, views)
	if err != nil {
		t.Fatal(err)
	}
	v0 := views[0]
	fillRow(v0, 0)
	row200 := make([]float64, cols)
	row200[0] = 42
	sm.WriteRows(200, row200) // third chunk: over-budget load
	if v0[3] != 0.25+3 {
		t.Fatalf("pinned view mutated by eviction: %v", v0[3])
	}
	sm.Unpin(pins)
	want := make([]float64, cols)
	fillRow(want, 0)
	got := readRow(sm, 0)
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("row 0 col %d = %v, want %v", d, got[d], want[d])
		}
	}
	if readRow(sm, 200)[0] != 42 {
		t.Fatalf("row 200 lost over-budget write")
	}
}

func TestSpillMatrixUnpinUnpinnedPanics(t *testing.T) {
	sm := newTestSpill(t, 64, 64, 1<<20)
	defer func() {
		if recover() == nil {
			t.Fatalf("Unpin of never-pinned chunk did not panic")
		}
	}()
	sm.Unpin([]int32{0})
}

func TestSpillMatrixReadRows(t *testing.T) {
	sm := newTestSpill(t, 500, 32, 1<<20)
	fillRows(sm, 0, 500)
	w := NewMatrix(321-123, 32)
	sm.ReadRows(w.Data, 123)
	if err := sm.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Rows; i++ {
		want := make([]float64, 32)
		fillRow(want, 123+i)
		for d := range want {
			if w.At(i, d) != want[d] {
				t.Fatalf("window row %d col %d mismatch", i, d)
			}
		}
	}
}

func TestDigestMatMatchesDense(t *testing.T) {
	const rows, cols = 700, 48
	dense := NewMatrix(rows, cols)
	for i := range dense.Data {
		dense.Data[i] = math.Sin(float64(i)) * 1e6
	}
	sm := newTestSpill(t, rows, cols, MinSpillBudget(rows, cols, 4))
	sm.WriteRows(0, dense.Data)
	if got, want := DigestMat(sm), DigestFloat64s(dense.Data); got != want {
		t.Fatalf("DigestMat(spill) = %#x, DigestFloat64s(dense) = %#x", got, want)
	}
	if got, want := DigestMat(dense), DigestFloat64s(dense.Data); got != want {
		t.Fatalf("DigestMat(dense) = %#x, want %#x", got, want)
	}
}

func TestCopyOutCopyIntoRoundTrip(t *testing.T) {
	const rows, cols = 97, 33
	sm := newTestSpill(t, rows, cols, MinSpillBudget(rows, cols, 2))
	fillRows(sm, 0, rows)
	out := CopyOut(sm)
	dense := NewMatrix(rows, cols)
	dense.WriteRows(0, out)
	for i := 0; i < rows; i++ {
		want := make([]float64, cols)
		fillRow(want, i)
		for d := range want {
			if dense.At(i, d) != want[d] {
				t.Fatalf("round-trip row %d col %d mismatch", i, d)
			}
		}
	}
	m := Materialize(sm)
	if DigestFloat64s(m.Data) != DigestFloat64s(out) {
		t.Fatalf("Materialize digest differs from CopyOut")
	}
	if Materialize(dense) != dense {
		t.Fatalf("Materialize(dense) must return the same matrix")
	}
}

func TestNewSpillMatrixRejectsTinyBudget(t *testing.T) {
	if _, err := NewSpillMatrix(100, 64, 1024, t.TempDir()); err == nil {
		t.Fatalf("budget below one chunk must error")
	}
}

func TestMinSpillBudgetCoversPins(t *testing.T) {
	const rows, cols = 4096, 128 // 64 rows/chunk, 64 chunks
	budget := MinSpillBudget(rows, cols, 10)
	if budget != 10*chunkStride(cols) {
		t.Fatalf("MinSpillBudget for 10 pins = %d, want 10 chunks", budget)
	}
	sm := newTestSpill(t, rows, cols, budget)
	// 10 rows in 10 distinct chunks — the worst case MinSpillBudget sizes.
	var pinRows []int32
	for c := 0; c < 10; c++ {
		pinRows = append(pinRows, int32(c*64))
	}
	pins := mustPin(t, sm, pinRows)
	if got := sm.MaxResidentBytes(); got > budget {
		t.Fatalf("resident %d exceeded MinSpillBudget %d", got, budget)
	}
	sm.Unpin(pins)

	// A one-chunk matrix at its minimum budget: every pin set fits the
	// one chunk, and reads and writes of any window stay within it.
	const small = 40 // under one 64-row chunk
	budget = MinSpillBudget(small, cols, 10)
	if budget != chunkStride(cols) || SpillFullBytes(small, cols) != budget {
		t.Fatalf("one-chunk matrix: MinSpillBudget %d, SpillFullBytes %d, want one %d B chunk",
			budget, SpillFullBytes(small, cols), chunkStride(cols))
	}
	one := newTestSpill(t, small, cols, budget)
	fillRows(one, 0, small)
	pins = mustPin(t, one, []int32{0, 7, small - 1})
	want := make([]float64, cols)
	for _, i := range []int{0, 20, small - 1} {
		fillRow(want, i)
		if got := readRow(one, i); got[3] != want[3] {
			t.Fatalf("one-chunk matrix row %d: %v, want %v", i, got[3], want[3])
		}
	}
	one.Unpin(pins)
	if got := one.MaxResidentBytes(); got > budget {
		t.Fatalf("one-chunk matrix: resident %d exceeded its budget %d", got, budget)
	}
}

// TestSpillPinReadsOnlyPinnedRows: one pinned epoch on a cold matrix
// reads exactly its distinct pinned rows, one pread per run of
// consecutive rows; a cold read outside a pin reads only its row and
// loads nothing; eviction writes back only the rows handed out mutably or
// written since the last write-back.
func TestSpillPinReadsOnlyPinnedRows(t *testing.T) {
	const rows, cols = 4096, 128 // 64 rows/chunk, 64 chunks
	rowBytes := int64(cols * 8)
	sm := newTestSpill(t, rows, cols, 4*chunkStride(cols))
	fillRows(sm, 0, rows)
	// Only the last four chunks are resident now; chunks 0–2 are cold.
	before := sm.Stats()
	pins := mustPin(t, sm, []int32{131, 0, 2, 1, 5, 64, 130, 2, 0})
	got := sm.Stats()
	if n := got.BytesRead - before.BytesRead; n != 7*rowBytes {
		t.Errorf("pin read %d B, want the 7 distinct rows' %d B", n, 7*rowBytes)
	}
	if n := got.Reads - before.Reads; n != 4 {
		t.Errorf("pin issued %d preads, want 4 runs ([0,3) [5] [64] [130,132))", n)
	}
	for _, i := range []int{0, 1, 2, 5, 64, 130, 131} {
		want := make([]float64, cols)
		fillRow(want, i)
		if r := readRow(sm, i); r[0] != want[0] || r[cols-1] != want[cols-1] {
			t.Fatalf("pinned row %d = %v..., want %v...", i, r[0], want[0])
		}
	}
	if sm.Stats().Reads != got.Reads {
		t.Errorf("reading pinned rows back did I/O")
	}
	// PinViews hands out every pinned row mutably; write them back after
	// Unpin, so that the row written below is the only dirty one at
	// eviction.
	sm.Unpin(pins)
	if err := sm.Flush(); err != nil {
		t.Fatal(err)
	}
	row5 := readRow(sm, 5)
	row5[0] = -1
	sm.WriteRows(5, row5) // the only row written since the flush

	// A cold read outside a pin reads just its row and loads nothing.
	before, resident := sm.Stats(), sm.ResidentBytes()
	readRow(sm, 10*64+3)
	if d := sm.Stats(); d.Reads-before.Reads != 1 || d.BytesRead-before.BytesRead != rowBytes {
		t.Errorf("cold unpinned read: %d preads / %d B, want 1 / %d B",
			d.Reads-before.Reads, d.BytesRead-before.BytesRead, rowBytes)
	}
	if got := sm.ResidentBytes(); got != resident {
		t.Errorf("cold unpinned read moved the resident bytes from %d to %d", resident, got)
	}
	// Pin four more cold chunks: chunk 63 and chunks 0–2 are evicted, and
	// only row 5 is written back.
	before = sm.Stats()
	for c := 11; c < 15; c++ {
		touch(t, sm, int32(c*64))
	}
	d := sm.Stats()
	if d.Evictions-before.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", d.Evictions-before.Evictions)
	}
	if d.Writes-before.Writes != 1 || d.BytesWritten-before.BytesWritten != rowBytes {
		t.Errorf("write-back: %d pwrites / %d B, want 1 / %d B",
			d.Writes-before.Writes, d.BytesWritten-before.BytesWritten, rowBytes)
	}
	if r := readRow(sm, 5); r[0] != -1 || r[1] != 5*1e3+1+0.25 {
		t.Errorf("row 5 after write-back = %v, %v", r[0], r[1])
	}
}

// TestSpillPinViews: PinViews hands out, position for position, views
// that alias the resident slab (repeated rows share one); a write
// through a view survives Unpin, the eviction of its chunk and a cold
// re-read; and every pinned row comes back dirty, so eviction writes
// back exactly the distinct pinned rows.
func TestSpillPinViews(t *testing.T) {
	const rows, cols = 1024, 128 // 64 rows/chunk, 16 chunks
	rowBytes := int64(cols * 8)
	sm := newTestSpill(t, rows, cols, 3*chunkStride(cols))
	fillRows(sm, 0, rows)
	if err := sm.Flush(); err != nil { // every row clean
		t.Fatal(err)
	}
	evictAll := func() { // pin three other chunks through the window
		for c := 10; c < 13; c++ {
			touch(t, sm, int32(c*64))
		}
	}
	pinned := []int32{3, 70, 3, 130}
	views := make([][]float64, len(pinned))
	pins, err := sm.PinViews(pinned, views)
	if err != nil {
		t.Fatal(err)
	}
	for p, r := range pinned {
		want := make([]float64, cols)
		fillRow(want, int(r))
		if views[p][0] != want[0] || views[p][cols-1] != want[cols-1] || len(views[p]) != cols {
			t.Fatalf("view %d of row %d = %v..., want %v...", p, r, views[p][0], want[0])
		}
	}
	if &views[0][0] != &views[2][0] {
		t.Error("a repeated row's views do not alias one slab row")
	}
	views[0][1] = -1 // row 3, through the view
	if got := readRow(sm, 3)[1]; got != -1 {
		t.Errorf("ReadRows of row 3 = %v after a write through its view, want -1", got)
	}
	sm.Unpin(pins)
	before := sm.Stats()
	evictAll()
	d := sm.Stats()
	if d.Evictions-before.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", d.Evictions-before.Evictions)
	}
	// All three distinct rows were handed out, so all three are written
	// back, though only row 3 changed.
	if n := d.BytesWritten - before.BytesWritten; n != 3*rowBytes {
		t.Errorf("write-back of PinViews' rows: %d B, want %d B", n, 3*rowBytes)
	}
	before = d
	got := readRow(sm, 3)
	if sm.Stats().Reads == before.Reads {
		t.Fatal("row 3 was not evicted")
	}
	if got[1] != -1 || got[2] != 3*1e3+2+0.25 {
		t.Errorf("row 3 after eviction and re-read = %v, %v", got[1], got[2])
	}
}

// TestSpillPinViewsLengthMismatchPanics: views must have one entry per
// pinned row.
func TestSpillPinViewsLengthMismatchPanics(t *testing.T) {
	sm := newTestSpill(t, 64, 128, 2*chunkStride(128))
	defer func() {
		if recover() == nil {
			t.Fatal("PinViews with too few views did not panic")
		}
	}()
	sm.PinViews([]int32{1, 2}, make([][]float64, 1))
}

// TestBitRunsMatchesScan checks the word-at-a-time run finder against a
// per-index scan over random words and ranges, runs crossing word
// boundaries included.
func TestBitRunsMatchesScan(t *testing.T) {
	rng := uint64(1)
	next := func() uint64 { // xorshift64
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	b := newBitset(256)
	for iter := 0; iter < 2000; iter++ {
		for w := range b {
			switch next() % 4 {
			case 0:
				b[w] = 0
			case 1:
				b[w] = ^uint64(0)
			default:
				b[w] = next() & next()
			}
		}
		lo := int(next() % 257)
		hi := lo + int(next()%uint64(257-lo))
		var want, got [][2]int
		for a := lo; a < hi; a++ {
			if !b.has(a) {
				continue
			}
			e := a + 1
			for e < hi && b.has(e) {
				e++
			}
			want = append(want, [2]int{a, e})
			a = e
		}
		bitRuns(lo, hi, func(w int) uint64 { return b[w] }, func(a, e int) {
			got = append(got, [2]int{a, e})
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("bitRuns(%d, %d) = %v, want %v", lo, hi, got, want)
		}
		c := slices.Clone(b)
		c.unsetRange(lo, hi)
		for i := 0; i < 256; i++ {
			if c.has(i) != (b.has(i) && (i < lo || i >= hi)) {
				t.Fatalf("unsetRange(%d, %d) left bit %d = %v", lo, hi, i, c.has(i))
			}
		}
	}
}

// TestSpillEvictionRecyclesSlabs: once the window is warm, writing
// through evicting chunks allocates nothing — each load takes over its
// victim's slab — and after pins forced the window past its budget the
// next loads evict it back within the budget.
func TestSpillEvictionRecyclesSlabs(t *testing.T) {
	const rows, cols = 4096, 128 // 64 rows/chunk
	budget := 3 * chunkStride(cols)
	sm := newTestSpill(t, rows, cols, budget)
	src := make([]float64, cols)
	stream := func() {
		for i := 0; i < rows; i += 64 {
			sm.WriteRows(i, src)
		}
	}
	stream()
	if n := testing.AllocsPerRun(5, stream); n != 0 {
		t.Errorf("writing 64 evicting chunks allocated %v times per pass, want 0", n)
	}
	sm.Unpin(mustPin(t, sm, []int32{0, 64, 128, 192, 256, 320})) // six chunks, budget three
	if got := sm.ResidentBytes(); got != 6*chunkStride(cols) {
		t.Fatalf("resident %d B after pinning six chunks", got)
	}
	stream()
	if got := sm.ResidentBytes(); got > budget {
		t.Errorf("resident %d B after writing, budget %d B", got, budget)
	}
}

// TestSpillWriteErrorIsSticky: a failed write-back poisons the matrix
// instead of panicking — PinViews, Flush, Shrink and Err report a
// *SpillError from then on.
func TestSpillWriteErrorIsSticky(t *testing.T) {
	const cols = 1024 // 8 rows/chunk
	sm := newTestSpill(t, 64, cols, 2*chunkStride(cols))
	fillRows(sm, 0, 16) // chunks 0 and 1, both dirty
	// Swap the backing file for a read-only handle of the same size.
	ro := filepath.Join(t.TempDir(), "ro.bin")
	if err := os.WriteFile(ro, make([]byte, 8*chunkStride(cols)), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ro)
	if err != nil {
		t.Fatal(err)
	}
	rw := sm.file
	sm.file = f
	t.Cleanup(func() { rw.Close() })

	sm.WriteRows(16, make([]float64, cols)) // evicts dirty chunk 0: its pwrite fails
	var se *SpillError
	if err := sm.Err(); !errors.As(err, &se) || se.Op != "write" || se.Chunk != 0 {
		t.Fatalf("Err() = %v, want a write error on chunk 0", err)
	}
	views := make([][]float64, 1)
	if pins, err := sm.PinViews([]int32{40}, views); !errors.As(err, &se) || pins != nil || views[0] != nil {
		t.Errorf("PinViews = (%v, %v) with view %v, want (nil, the write error) and no view", pins, err, views[0])
	}
	if err := sm.Flush(); !errors.As(err, &se) {
		t.Errorf("Flush = %v, want the write error", err)
	}
	if err := sm.Shrink(); !errors.As(err, &se) {
		t.Errorf("Shrink = %v, want the write error", err)
	}
}

// TestSpillReadErrorNeverShowsForeignRows: a failed read leaves the
// row zeroed rather than showing the recycled slab's previous chunk, a
// pin whose read failed hands out no view, and a row whose read failed
// is never written back over its good file value.
func TestSpillReadErrorNeverShowsForeignRows(t *testing.T) {
	const cols = 1024 // 8 rows/chunk
	sm := newTestSpill(t, 64, cols, 2*chunkStride(cols))
	fillRows(sm, 0, 64)
	if err := sm.Flush(); err != nil {
		t.Fatal(err)
	}
	// Swap the backing file for a write-only handle: every pread fails.
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "wo.bin"), os.O_CREATE|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	rw := sm.file
	sm.file = f

	// Chunk 0 takes over the slab of chunk 6, which holds rows 48–55.
	views := make([][]float64, 1)
	var se *SpillError
	if pins, err := sm.PinViews([]int32{3}, views); !errors.As(err, &se) || pins != nil || views[0] != nil {
		t.Fatalf("PinViews over a failed read = (%v, %v) with view %v, want (nil, a read error) and no view", pins, err, views[0])
	}
	if se.Op != "read" || se.Chunk != 0 {
		t.Fatalf("PinViews error %v, want a read error on chunk 0", se)
	}
	for d, v := range readRow(sm, 3) {
		if v != 0 {
			t.Fatalf("row 3 after a failed read: col %d = %v, want 0", d, v)
		}
	}
	writes := sm.Stats().Writes
	sm.WriteRows(2*8, make([]float64, cols)) // two more loads evict chunk 0
	sm.WriteRows(3*8, make([]float64, cols))
	if n := sm.Stats().Writes - writes; n != 0 {
		t.Errorf("evicting a chunk whose read failed issued %d pwrites, want 0", n)
	}

	sm.file = rw
	f.Close()
	want := make([]float64, cols)
	fillRow(want, 3)
	if r := readRow(sm, 3); r[0] != want[0] || r[cols-1] != want[cols-1] {
		t.Errorf("row 3 on file = %v..., want its own %v...", r[0], want[0])
	}
}

// TestSpillConcurrentReadersUnderEviction: racing readers of a spill
// matrix under a two-chunk budget each see exact rows while another
// goroutine loads, evicts and recycles slabs under them, writing the
// rows' own values back through WriteRows and pinning scattered rows.
// Every other window is read a row at a time, the rest in one ReadRows.
func TestSpillConcurrentReadersUnderEviction(t *testing.T) {
	const rows, cols = 512, 256 // 32 rows/chunk, 16 chunks
	sm := newTestSpill(t, rows, cols, 2*chunkStride(cols))
	fillRows(sm, 0, rows)
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // churn: every write and pin loads, evicts and recycles
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := (k * 7919) % rows
			fillRows(sm, lo, min(lo+1+k%40, rows))
			pins, err := sm.PinViews([]int32{int32((k * 104729) % rows)}, make([][]float64, 1))
			if err != nil {
				errs <- err
				return
			}
			sm.Unpin(pins)
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			want := make([]float64, cols)
			for k := 0; k < 200; k++ {
				lo := (seed*7919 + k*104729) % rows
				hi := min(lo+1+k%40, rows)
				w := NewMatrix(hi-lo, cols)
				if k%2 == 0 {
					sm.ReadRows(w.Data, lo)
				} else {
					for i := lo; i < hi; i++ {
						sm.ReadRows(w.Row(i-lo), i)
					}
				}
				for i := lo; i < hi; i++ {
					fillRow(want, i)
					for d, v := range w.Row(i - lo) {
						if v != want[d] {
							errs <- fmt.Errorf("row %d col %d = %v, want %v", i, d, v, want[d])
							return
						}
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := sm.Err(); err != nil {
		t.Error(err)
	}
}

// TestSpillShrink: Shrink writes the dirty rows back and drops every
// slab, so every row still reads back bit-equal and no read afterwards —
// ReadRows, DigestMat, Materialize, CopyOut — holds a slab. The ceiling
// stays the configured budget, MaxResidentBytes keeps the lifetime
// high-water mark, and a second Shrink does nothing.
func TestSpillShrink(t *testing.T) {
	const rows, cols = 512, 256 // 32 rows/chunk, 16 chunks
	stride := chunkStride(cols)
	sm := newTestSpill(t, rows, cols, 6*stride)
	fillRows(sm, 0, rows)
	before := Materialize(sm)
	peak := sm.MaxResidentBytes()
	if err := sm.Shrink(); err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if got := sm.ResidentBytes(); got != 0 {
		t.Fatalf("ResidentBytes after Shrink = %d, want 0", got)
	}
	if got := sm.BudgetBytes(); got != 6*stride {
		t.Fatalf("BudgetBytes after Shrink = %d, want the budget %d", got, 6*stride)
	}
	stats := sm.Stats()
	if err := sm.Shrink(); err != nil {
		t.Fatalf("second Shrink: %v", err)
	}
	if got := sm.Stats(); got != stats {
		t.Errorf("second Shrink moved the stats: %+v, want %+v", got, stats)
	}
	for i := 0; i < rows; i++ {
		for d, v := range readRow(sm, i) {
			if math.Float64bits(v) != math.Float64bits(before.At(i, d)) {
				t.Fatalf("row %d col %d after Shrink = %v, want %v", i, d, v, before.At(i, d))
			}
		}
		if got := sm.ResidentBytes(); got != 0 {
			t.Fatalf("after reading row %d: %d resident bytes, want 0", i, got)
		}
	}
	if got, want := DigestMat(sm), DigestFloat64s(before.Data); got != want {
		t.Errorf("DigestMat after Shrink = %#x, want %#x", got, want)
	}
	if !slices.Equal(Materialize(sm).Data, before.Data) || !slices.Equal(CopyOut(sm), before.Data) {
		t.Error("Materialize or CopyOut after Shrink differs from before")
	}
	if got := sm.ResidentBytes(); got != 0 {
		t.Errorf("DigestMat, Materialize and CopyOut left %d resident bytes, want 0", got)
	}
	if got := sm.MaxResidentBytes(); got != peak {
		t.Errorf("MaxResidentBytes = %d after Shrink, want the high-water mark %d", got, peak)
	}
}

// TestSpillReadRowsLeavesResidencyAlone: ReadRows copies present rows
// from their slabs, dirty ones included, and reads every other row of a
// written chunk straight from the file, one pread per run in a chunk; it
// loads, evicts and writes nothing, and a chunk never written back reads
// as zeros with no I/O.
func TestSpillReadRowsLeavesResidencyAlone(t *testing.T) {
	const rows, cols = 72, 1024 // 8 rows/chunk, 9 chunks
	sm := newTestSpill(t, rows, cols, 4*chunkStride(cols))
	fillRows(sm, 0, 64) // chunks 0–3 written back, 4–7 resident and dirty
	touch(t, sm, 10)    // evicts chunk 4; chunk 1 holds only row 10
	resident, before := sm.ResidentBytes(), sm.Stats()
	w := NewMatrix(rows, cols)
	for i := range w.Data {
		w.Data[i] = math.NaN() // a reused buffer: absent rows must be overwritten
	}
	sm.ReadRows(w.Data, 0)
	want := make([]float64, cols)
	for i := 0; i < rows; i++ {
		clear(want)
		if i < 64 {
			fillRow(want, i)
		}
		if !slices.Equal(w.Row(i), want) {
			t.Fatalf("row %d = %v..., want %v...", i, w.Row(i)[0], want[0])
		}
	}
	if got := sm.ResidentBytes(); got != resident {
		t.Errorf("ReadRows moved the resident bytes from %d to %d", resident, got)
	}
	// Chunks 0, 2, 3 and 4 whole (one pread each) and chunk 1's rows 8–9
	// and 11–15 (two preads): 39 rows; chunks 5–7 come from their slabs.
	got := sm.Stats()
	if n := got.Reads - before.Reads; n != 6 {
		t.Errorf("ReadRows issued %d preads, want 6", n)
	}
	if n := got.BytesRead - before.BytesRead; n != 39*cols*8 {
		t.Errorf("ReadRows read %d bytes, want %d", n, 39*cols*8)
	}
	if got.Writes != before.Writes || got.Evictions != before.Evictions {
		t.Errorf("ReadRows wrote or evicted: stats %+v, before %+v", got, before)
	}
}

// TestSpillShrinkKeepsPinnedChunk: a chunk still pinned when Shrink runs
// stays resident, with its row written back and its view still valid;
// Shrink drops only the unpinned slabs.
func TestSpillShrinkKeepsPinnedChunk(t *testing.T) {
	const cols = 1024 // 8 rows/chunk
	stride := chunkStride(cols)
	sm := newTestSpill(t, 64, cols, 4*stride)
	fillRows(sm, 0, 32) // chunks 0–3 resident
	views := make([][]float64, 1)
	pins, err := sm.PinViews([]int32{20}, views) // chunk 2
	if err != nil {
		t.Fatal(err)
	}
	views[0][0] = -7
	if err := sm.Shrink(); err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if got := sm.ResidentBytes(); got != stride {
		t.Fatalf("ResidentBytes after Shrink with one pinned chunk = %d, want %d", got, stride)
	}
	if got := readRow(sm, 20)[0]; got != -7 || views[0][0] != -7 {
		t.Fatalf("pinned row 20 after Shrink: read %v, view %v, want -7", got, views[0][0])
	}
	sm.Unpin(pins)
	for i := 0; i < 64; i++ {
		readRow(sm, i)
		if got := sm.ResidentBytes(); got != stride {
			t.Fatalf("after reading row %d: %d resident bytes, want the unpinned chunk's %d", i, got, stride)
		}
	}
	want := make([]float64, cols)
	fillRow(want, 21)
	if got := readRow(sm, 21); got[5] != want[5] || readRow(sm, 20)[0] != -7 {
		t.Errorf("chunk 2 lost its rows across Shrink and eviction")
	}
}

// TestSpillBudgetBytesRacesShrink: BudgetBytes takes no lock, and reads
// the ceiling fixed at creation while Shrink runs (run under -race).
func TestSpillBudgetBytesRacesShrink(t *testing.T) {
	const cols = 1024
	sm := newTestSpill(t, 64, cols, 4*chunkStride(cols))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 100; k++ {
			if b := sm.BudgetBytes(); b != 4*chunkStride(cols) {
				t.Errorf("BudgetBytes = %d, not the %d fixed at creation", b, 4*chunkStride(cols))
				return
			}
		}
	}()
	if err := sm.Shrink(); err != nil {
		t.Error(err)
	}
	wg.Wait()
}
