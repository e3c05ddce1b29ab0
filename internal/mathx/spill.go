package mathx

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// float64sAsBytes reinterprets xs as its raw in-memory bytes, native
// endianness. The spill file is process-private (unlinked at creation) and
// never read by another machine, so byte order portability is moot and the
// zero-copy view keeps row I/O at memcpy speed.
func float64sAsBytes(xs []float64) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)
}

// SpillChunkFloats is the number of float64 values per spill-file chunk:
// 64 KiB, the same frame geometry as the v3 indexed stream format
// (core/rowindex.go), so the out-of-core tier and the artifact/checkpoint
// writers stay aligned on one I/O granularity. Unlike v3 stream frames
// (length-prefixed gob, append-only) the spill file stores chunks as raw
// fixed-stride native-endian float64 so rows can be rewritten in place;
// DESIGN.md §15 documents the layout.
const SpillChunkFloats = 8192

// SpillChunkBytes is the byte size of a full spill chunk.
const SpillChunkBytes = SpillChunkFloats * 8

// bitset is a fixed-size bit vector over row or chunk indices.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// setRange sets bits [lo, hi), a word at a time.
func (b bitset) setRange(lo, hi int) {
	for w := lo >> 6; w<<6 < hi; w++ {
		b[w] |= wordMask(w, lo, hi)
	}
}

// unsetRange clears bits [lo, hi), a word at a time.
func (b bitset) unsetRange(lo, hi int) {
	for w := lo >> 6; w<<6 < hi; w++ {
		b[w] &^= wordMask(w, lo, hi)
	}
}

// wordMask returns the bits of word w that fall in [lo, hi).
func wordMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := w << 6; lo > base {
		m <<= uint(lo - base)
	}
	if end := (w + 1) << 6; hi < end {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// bitRuns calls fn on each maximal run [a, b) of consecutive indices in
// [lo, hi) whose bit is set in word(w), the 64-bit word w of some bitset
// expression. It reads one word per 64 indices and does no per-index
// work, so a range with no set bit costs only its word reads.
func bitRuns(lo, hi int, word func(w int) uint64, fn func(a, b int)) {
	start := -1 // first index of the open run, -1 when none
	for w := lo >> 6; w<<6 < hi; w++ {
		base, x := w<<6, word(w)&wordMask(w, lo, hi)
		for p := 0; ; {
			if start < 0 {
				y := x >> uint(p)
				if y == 0 {
					break
				}
				p += bits.TrailingZeros64(y)
				start = base + p
			}
			// The run ends at the next clear bit; ^x shifted right brings in
			// zeros, so a run reaching the word's top stays open.
			y := ^x >> uint(p)
			if y == 0 {
				break
			}
			p += bits.TrailingZeros64(y)
			fn(start, base+p)
			start = -1
		}
	}
	if start >= 0 {
		fn(start, hi)
	}
}

// spillChunk is the residency state of one 64 KiB window of the backing
// file. The slab is the unit of residency; rows inside it are the unit of
// I/O, tracked by the matrix's present and dirty row bitsets.
type spillChunk struct {
	data       []float64 // rowsIn(chunk)·cols values while resident, nil otherwise
	pins       int       // eviction is forbidden while > 0
	prev, next int32     // LRU list links among resident chunks; -1 ends the list
	written    bool      // some row was written back; until then the chunk reads as zeros
}

// SpillStats counts a spill matrix's traffic with its backing file.
type SpillStats struct {
	Reads, Writes           int64 // pread and pwrite calls
	BytesRead, BytesWritten int64
	Evictions               int64 // chunks dropped from residency
}

// SpillError is a failed read or write-back of a spill matrix's backing
// file. The first one is sticky: the matrix's contents are no longer
// trustworthy, so PinViews, Flush, Shrink and Err return it from then on.
type SpillError struct {
	Op    string // "read" or "write"
	Chunk int
	Err   error
}

func (e *SpillError) Error() string {
	return fmt.Sprintf("mathx: spill %s of chunk %d: %v", e.Op, e.Chunk, e.Err)
}

func (e *SpillError) Unwrap() error { return e.Err }

// SpillMatrix is a file-backed Mat: a rows×cols float64 matrix whose
// resident state is an LRU window of 64 KiB chunk slabs over an anonymous
// (created-then-unlinked) temp file, bounded by a byte budget. It is the
// out-of-core training tier selected by Config.MemoryBudget.
//
// There are two ways in. PinViews makes the chunks covering a set of rows
// resident, reads the absent ones of those rows, and hands out mutable
// views of them that stay valid until the matching Unpin: the training
// engine pins each epoch's touched rows once, on the training goroutine
// before the parallel stages, which then read and write only those views
// and take no lock. Every other pass copies windows of rows under the
// matrix's lock: WriteRows loads the window's chunks and copies values in
// (initialization, restore), and ReadRows copies values out (digest,
// checkpoint capture, the artifact write, serving) without loading any
// chunk. Only PinViews and WriteRows make a chunk resident.
//
// I/O is row-granular. A chunk becomes resident without I/O; a row in it
// is read from the file only when a pin needs it (a present bit) and
// written back on eviction only if it was handed out mutably or written
// (a dirty bit). ReadRows copies present rows from their slabs and reads
// the rest straight from the file. Runs of consecutive rows coalesce into
// one pread or pwrite.
//
// Concurrency: all methods are safe for concurrent use. Slabs are
// recycled — an evicted chunk's slab is reused for the next chunk to load
// — which is why a view exists only while its chunk is pinned.
//
// Budget overage: if every resident chunk is pinned and a new chunk must
// load, the matrix grows past its budget rather than deadlock; the
// high-water mark (MaxResidentBytes) records it. Callers that need a hard
// guarantee size their pin sets with MinSpillBudget.
//
// I/O errors do not panic: the first one is recorded (SpillError) and
// returned by the next PinViews, Flush, Shrink or Err, and from then on
// reads may return zeros (a failed read) or the file's older value (a
// lost write-back), never another row's values. A reader that copies out
// a spilled matrix — a digest, a checkpoint, an artifact — checks Err
// afterwards and discards the copy if it is set.
type SpillMatrix struct {
	rows, cols int
	chunkRows  int // rows per chunk: max(1, SpillChunkFloats/cols)

	budgetChunks int // resident ceiling (soft under all-pinned pressure), fixed at creation

	mu       sync.Mutex
	file     *os.File
	chunks   []spillChunk // indexed by chunk; data == nil when not resident
	present  bitset       // rows whose resident slab holds their current value
	dirty    bitset       // present rows handed out mutably or written since their last write-back
	mark     bitset       // pinLocked's row marks, cleared before it returns
	pinMark  bitset       // pinLocked's chunk marks, cleared as they are visited
	mru, lru int32        // resident list ends, -1 when nothing is resident

	resident    int // resident chunk count
	maxResident int // high-water resident chunk count
	stats       SpillStats
	err         error // first I/O failure, sticky
	closed      bool  // Close called; file gone
}

// SpillChunkRows returns the rows-per-chunk stride a spill matrix with the
// given column count uses: max(1, SpillChunkFloats/cols).
func SpillChunkRows(cols int) int {
	if cols <= 0 {
		return 1
	}
	cr := SpillChunkFloats / cols
	if cr < 1 {
		cr = 1
	}
	return cr
}

// spillChunks returns the chunk count of a rows×cols spill matrix (at
// least one) and its chunk stride in bytes.
func spillChunks(rows, cols int) (numChunks int, stride int64) {
	cr := SpillChunkRows(cols)
	numChunks = (rows + cr - 1) / cr
	if numChunks < 1 {
		numChunks = 1
	}
	return numChunks, int64(cr) * int64(cols) * 8
}

// MinSpillBudget returns the smallest byte budget under which a spill
// matrix of the given shape can keep `rows` arbitrary rows pinned at once:
// min(rows, numChunks) chunks, at least one. The worst case is each pinned
// row landing in a distinct chunk. No spare is needed: reads load no
// chunk, and WriteRows runs before the first pin.
func MinSpillBudget(totalRows, cols, rows int) int64 {
	numChunks, stride := spillChunks(totalRows, cols)
	return int64(max(min(rows, numChunks), 1)) * stride
}

// SpillFullBytes returns the budget at which a rows×cols spill matrix
// holds every chunk resident: a budget beyond it buys nothing.
func SpillFullBytes(rows, cols int) int64 {
	numChunks, stride := spillChunks(rows, cols)
	return int64(numChunks) * stride
}

// NewSpillMatrix creates a zeroed rows×cols spill matrix bounded by
// budgetBytes of resident chunk slabs. The backing file is created in
// dir (or the default temp directory when dir is "") and unlinked
// immediately, so it holds no visible on-disk name and is reclaimed by the
// OS when closed — including on crash. The budget must admit at least one
// chunk; errors otherwise.
func NewSpillMatrix(rows, cols int, budgetBytes int64, dir string) (*SpillMatrix, error) {
	if rows < 0 || cols <= 0 {
		return nil, fmt.Errorf("mathx: NewSpillMatrix(%d, %d): invalid shape", rows, cols)
	}
	numChunks, stride := spillChunks(rows, cols)
	budgetChunks := int(budgetBytes / stride)
	if budgetChunks < 1 {
		return nil, fmt.Errorf("mathx: spill budget %d B below one %d B chunk", budgetBytes, stride)
	}
	f, err := os.CreateTemp(dir, "sepriv-spill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("mathx: spill file: %w", err)
	}
	// Unlink now: the fd stays valid, the name disappears, and the kernel
	// reclaims the blocks when the last fd closes — no cleanup path needed.
	name := f.Name()
	if err := os.Remove(name); err != nil {
		f.Close()
		return nil, fmt.Errorf("mathx: unlink spill file: %w", err)
	}
	// Sparse-extend to full size so unwritten rows read back as zeros,
	// matching NewMatrix's zeroed allocation.
	if err := f.Truncate(int64(numChunks) * stride); err != nil {
		f.Close()
		return nil, fmt.Errorf("mathx: size spill file: %w", err)
	}
	m := &SpillMatrix{
		rows:         rows,
		cols:         cols,
		chunkRows:    SpillChunkRows(cols),
		budgetChunks: budgetChunks,
		file:         f,
		chunks:       make([]spillChunk, numChunks),
		present:      newBitset(rows),
		dirty:        newBitset(rows),
		mark:         newBitset(rows),
		pinMark:      newBitset(numChunks),
		mru:          -1,
		lru:          -1,
	}
	runtime.SetFinalizer(m, func(sm *SpillMatrix) { sm.Close() })
	return m, nil
}

// NumRows implements Mat.
func (m *SpillMatrix) NumRows() int { return m.rows }

// NumCols implements Mat.
func (m *SpillMatrix) NumCols() int { return m.cols }

// rowRange returns chunk c's rows [lo, hi) (the last chunk may be short).
func (m *SpillMatrix) rowRange(c int) (lo, hi int) {
	lo = c * m.chunkRows
	return lo, min(lo+m.chunkRows, m.rows)
}

// rowsOf returns the slab values of rows [a, b) of resident chunk c.
func (m *SpillMatrix) rowsOf(c, a, b int) []float64 {
	lo, _ := m.rowRange(c)
	return m.chunks[c].data[(a-lo)*m.cols : (b-lo)*m.cols]
}

// fail records the first I/O error. Caller holds m.mu.
func (m *SpillMatrix) fail(op string, c int, err error) {
	if m.err == nil {
		m.err = &SpillError{Op: op, Chunk: c, Err: err}
	}
}

// unlink removes resident chunk c from the LRU list. Caller holds m.mu.
func (m *SpillMatrix) unlink(c int) {
	ch := &m.chunks[c]
	if ch.prev >= 0 {
		m.chunks[ch.prev].next = ch.next
	} else {
		m.mru = ch.next
	}
	if ch.next >= 0 {
		m.chunks[ch.next].prev = ch.prev
	} else {
		m.lru = ch.prev
	}
}

// pushMRU puts chunk c at the most-recently-used end. Caller holds m.mu.
func (m *SpillMatrix) pushMRU(c int) {
	ch := &m.chunks[c]
	ch.prev, ch.next = -1, m.mru
	if m.mru >= 0 {
		m.chunks[m.mru].prev = int32(c)
	} else {
		m.lru = int32(c)
	}
	m.mru = int32(c)
}

// load makes chunk c resident, with every row absent and no I/O. If the
// budget is full it evicts the LRU unpinned chunk and takes over its slab,
// so a warm window allocates nothing. Caller holds m.mu.
func (m *SpillMatrix) load(c int) *spillChunk {
	if m.closed {
		panic("mathx: SpillMatrix used after Close")
	}
	ch := &m.chunks[c]
	if ch.data != nil {
		if m.mru != int32(c) {
			m.unlink(c)
			m.pushMRU(c)
		}
		return ch
	}
	var slab []float64
	for m.resident >= m.budgetChunks {
		victim, ok := m.evictLRU()
		if !ok {
			break // everything pinned: grow past budget rather than deadlock
		}
		slab = victim
	}
	lo, hi := m.rowRange(c)
	if n := (hi - lo) * m.cols; cap(slab) >= n {
		ch.data = slab[:n]
	} else {
		ch.data = make([]float64, n)
	}
	m.pushMRU(c)
	m.resident++
	m.maxResident = max(m.maxResident, m.resident)
	return ch
}

// readFile reads the rows of chunk c from row a on into dst with one
// pread, or zeroes dst with no I/O while the chunk has never been written
// back. A failed read zeroes dst too, so it never shows a recycled slab's
// previous chunk, records the error and returns false. Caller holds m.mu.
func (m *SpillMatrix) readFile(c, a int, dst []float64) bool {
	if !m.chunks[c].written {
		clear(dst)
		return true
	}
	buf := float64sAsBytes(dst)
	if _, err := m.file.ReadAt(buf, int64(a)*int64(m.cols)*8); err != nil {
		clear(dst)
		m.fail("read", c, err)
		return false
	}
	m.stats.Reads++
	m.stats.BytesRead += int64(len(buf))
	return true
}

// fill makes the rows of resident chunk c that are marked in want and
// absent present, one readFile per run of consecutive rows; a row whose
// read failed stays absent. Caller holds m.mu.
func (m *SpillMatrix) fill(c int, want bitset) {
	lo, hi := m.rowRange(c)
	bitRuns(lo, hi, func(w int) uint64 { return want[w] &^ m.present[w] }, func(a, b int) {
		if m.readFile(c, a, m.rowsOf(c, a, b)) {
			m.present.setRange(a, b)
		}
	})
}

// writeBack writes chunk c's dirty rows to the file, one pwrite per run,
// and marks them clean unless the chunk is pinned: a pin's holder may
// still write through its views, and those writes must reach the file
// when the chunk is evicted after Unpin. Caller holds m.mu.
func (m *SpillMatrix) writeBack(c int) {
	ch := &m.chunks[c]
	lo, hi := m.rowRange(c)
	bitRuns(lo, hi, func(w int) uint64 { return m.dirty[w] }, func(a, b int) {
		buf := float64sAsBytes(m.rowsOf(c, a, b))
		if _, err := m.file.WriteAt(buf, int64(a)*int64(m.cols)*8); err != nil {
			m.fail("write", c, err)
		} else {
			ch.written = true
			m.stats.Writes++
			m.stats.BytesWritten += int64(len(buf))
		}
		if ch.pins == 0 {
			m.dirty.unsetRange(a, b)
		}
	})
}

// evictLRU writes back the least-recently-used unpinned chunk's dirty
// rows, drops it from residency and returns its slab for reuse. Returns
// false when every resident chunk is pinned. Caller holds m.mu.
func (m *SpillMatrix) evictLRU() ([]float64, bool) {
	c := int(m.lru)
	for c >= 0 && m.chunks[c].pins > 0 {
		c = int(m.chunks[c].prev)
	}
	if c < 0 {
		return nil, false
	}
	return m.evict(c), true
}

// evict writes back resident chunk c's dirty rows, drops it from
// residency and returns its slab. Caller holds m.mu.
func (m *SpillMatrix) evict(c int) []float64 {
	m.writeBack(c)
	m.unlink(c)
	lo, hi := m.rowRange(c)
	m.present.unsetRange(lo, hi)
	ch := &m.chunks[c]
	slab := ch.data
	ch.data = nil
	m.resident--
	m.stats.Evictions++
	return slab
}

// PinViews makes resident the chunks covering rows, reads those of the
// rows not yet present, and holds the chunks unevictable until the
// matching Unpin. Duplicate rows are fine (one pin per chunk per call).
// views[p] becomes a mutable view of row rows[p] (views must have
// len(rows) entries), all taken under the one lock acquisition of the
// pin. It returns the sorted distinct chunk list for Unpin, or the
// matrix's sticky I/O error, in which case nothing stays pinned. The
// views stay valid until the matching Unpin and need no further locking,
// so a caller that reads and writes the pinned rows from several
// goroutines — the training engine's gradient and update stages — never
// contends on the matrix.
// Every pinned row is marked dirty, because the caller is expected to
// write it. On error views is left unchanged.
func (m *SpillMatrix) PinViews(rows []int32, views [][]float64) ([]int32, error) {
	if len(views) != len(rows) {
		panic(fmt.Sprintf("mathx: PinViews of %d rows into %d views", len(rows), len(views)))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	chunks, err := m.pinLocked(rows)
	if err != nil {
		return nil, err
	}
	// A successful pin left every row present (a failed read fails it).
	for p, r := range rows {
		c := int(r) / m.chunkRows
		views[p] = m.rowsOf(c, int(r), int(r)+1)
		m.dirty.set(int(r))
	}
	return chunks, nil
}

// pinLocked pins rows' chunks and reads their absent rows for PinViews.
// Caller holds m.mu.
func (m *SpillMatrix) pinLocked(rows []int32) ([]int32, error) {
	if m.err != nil {
		return nil, m.err
	}
	for _, r := range rows {
		m.mark.set(int(r))
		m.pinMark.set(int(r) / m.chunkRows)
	}
	var chunks []int32
	for w, word := range m.pinMark {
		for ; word != 0; word &= word - 1 {
			c := w*64 + bits.TrailingZeros64(word)
			chunks = append(chunks, int32(c))
			m.load(c).pins++
			m.fill(c, m.mark)
		}
		m.pinMark[w] = 0
	}
	for _, r := range rows {
		m.mark.unset(int(r))
	}
	if m.err != nil {
		m.unpinLocked(chunks)
		return nil, m.err
	}
	return chunks, nil
}

// Unpin releases a pin set returned by PinViews.
func (m *SpillMatrix) Unpin(chunks []int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unpinLocked(chunks)
}

func (m *SpillMatrix) unpinLocked(chunks []int32) {
	for _, c := range chunks {
		ch := &m.chunks[c]
		if ch.data == nil || ch.pins == 0 {
			panic(fmt.Sprintf("mathx: Unpin of unpinned chunk %d", c))
		}
		ch.pins--
	}
}

// ReadRows implements Mat under one acquisition of the matrix's lock. A
// row present in a resident slab is copied from it; every other row is
// read straight from the file into dst, one readFile per run, without
// making its chunk resident. So ReadRows loads, evicts and dirties
// nothing, and concurrent readers never evict each other's chunks.
func (m *SpillMatrix) ReadRows(dst []float64, lo int) {
	hi := windowEnd("ReadRows", m.rows, m.cols, lo, len(dst))
	window := func(a, b int) []float64 { return dst[(a-lo)*m.cols : (b-lo)*m.cols] }
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		panic("mathx: SpillMatrix used after Close")
	}
	for a := lo; a < hi; {
		c := a / m.chunkRows
		b := min(hi, (c+1)*m.chunkRows)
		if m.chunks[c].data != nil { // a non-resident chunk has no present row
			bitRuns(a, b, func(w int) uint64 { return m.present[w] }, func(x, y int) {
				copy(window(x, y), m.rowsOf(c, x, y))
			})
		}
		bitRuns(a, b, func(w int) uint64 { return ^m.present[w] }, func(x, y int) {
			m.readFile(c, x, window(x, y))
		})
		a = b
	}
}

// WriteRows implements Mat under one acquisition of the matrix's lock: it
// loads the window's chunks in row order, evicting as the budget demands,
// copies src in, and marks the window's rows present and dirty, reading
// nothing.
func (m *SpillMatrix) WriteRows(lo int, src []float64) {
	hi := windowEnd("WriteRows", m.rows, m.cols, lo, len(src))
	m.mu.Lock()
	defer m.mu.Unlock()
	for a := lo; a < hi; {
		c := a / m.chunkRows
		b := min(hi, (c+1)*m.chunkRows)
		m.load(c)
		copy(m.rowsOf(c, a, b), src[(a-lo)*m.cols:(b-lo)*m.cols])
		m.present.setRange(a, b)
		m.dirty.setRange(a, b)
		a = b
	}
}

// Err returns the first I/O error the matrix hit, nil if none.
func (m *SpillMatrix) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Stats returns the matrix's I/O counters since creation.
func (m *SpillMatrix) Stats() SpillStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResidentBytes returns the bytes currently held in resident slabs.
func (m *SpillMatrix) ResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for c := m.mru; c >= 0; c = m.chunks[c].next {
		n += int64(len(m.chunks[c].data)) * 8
	}
	return n
}

// MaxResidentBytes returns the high-water mark of resident slab bytes over
// the matrix's lifetime (counted at full-chunk stride, the allocation
// granularity). The alloc-bounded residency tests assert this against the
// configured budget.
func (m *SpillMatrix) MaxResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.maxResident) * int64(m.chunkRows*m.cols*8)
}

// BudgetBytes returns the resident ceiling in bytes (chunk-granular).
func (m *SpillMatrix) BudgetBytes() int64 {
	return int64(m.budgetChunks) * int64(m.chunkRows*m.cols*8)
}

// Flush writes every dirty resident row back to the file without
// evicting, so a subsequent crash loses nothing, and returns the sticky
// I/O error, if any.
func (m *SpillMatrix) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushLocked()
}

// flushLocked implements Flush. Caller holds m.mu.
func (m *SpillMatrix) flushLocked() error {
	for c := m.mru; c >= 0; c = m.chunks[c].next {
		m.writeBack(int(c))
	}
	return m.err
}

// Shrink gives back the resident slabs of a matrix that will only be read
// from now on, such as a finished result: it writes every dirty resident
// row back and, only if that succeeds, drops every unpinned slab. ReadRows
// reads around the empty window, so reads of a shrunk matrix hold no slab.
// MaxResidentBytes keeps its lifetime high-water mark. A pinned chunk
// stays resident, as under all-pinned pressure, so a view a caller still
// holds stays valid. On failure Shrink returns the sticky I/O error (a
// *SpillError) and drops nothing; after a successful Flush with no chunk
// pinned and no row dirtied since, it does no I/O and cannot fail. A
// second Shrink does nothing.
func (m *SpillMatrix) Shrink() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.flushLocked(); err != nil {
		return err
	}
	for c := m.mru; c >= 0; {
		next := m.chunks[c].next
		if m.chunks[c].pins == 0 {
			m.evict(int(c)) // clean after the flush: no I/O
		}
		c = next
	}
	return nil
}

// Close releases the backing file descriptor; the already-unlinked file's
// blocks are reclaimed by the kernel. Safe to call twice.
func (m *SpillMatrix) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.chunks = nil
	m.mru, m.lru = -1, -1
	runtime.SetFinalizer(m, nil)
	return m.file.Close()
}
