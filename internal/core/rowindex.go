package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"seprivgemb/internal/mathx"
)

// This file is the indexed (v3) stream format shared by checkpoints and
// the artifact store — the only format either reads or writes. The weight
// matrices stream as 64 KiB blocks, which keeps ENCODE memory flat in |V|;
// each block is independently decodable and the stream records where it
// landed, so DECODE of an arbitrary row window is flat in |V| too — the
// serving contract for partial embeddings (DESIGN.md §10).
//
// Layout:
//
//	[8]      stream magic (big-endian streamMagicV3)
//	[frame]  header — a caller-defined gob struct (checkpointHeader or the
//	         artifact store's artifactHeader)
//	[frame]* Win chunks, []float64 of at most chunkFloats values each
//	[frame]* Wout chunks
//	[frame]  RowIndex — the byte offset of every chunk frame above
//	[8]      byte offset of the RowIndex frame (big-endian)
//	[8]      index magic (big-endian indexMagicV3)
//
// Every frame is [8-byte big-endian payload length][gob payload from a
// FRESH encoder]. A fresh encoder per frame repeats the ~30-byte type
// definition — negligible against 64 KiB — and buys random access: any
// frame decodes in isolation given its offset, which is what lets a
// windowed read seek straight to the two or three chunks covering its
// rows instead of replaying the whole stream.
const (
	streamMagicV3 uint64 = 0x5345505633494458 // "SEPV3IDX"
	indexMagicV3  uint64 = 0x5345505633524f57 // "SEPV3ROW"
	// trailerBytes is the fixed tail: index offset + index magic.
	trailerBytes = 16
	// maxFrameBytes caps one frame's declared payload, so a corrupt or
	// hostile length prefix is rejected before allocation. Chunk frames
	// are ~64 KiB; the largest legitimate frame is the RowIndex of a
	// huge matrix pair (two offsets per 8192 values — ~5 MiB at 2^31
	// values), comfortably under this bound.
	maxFrameBytes = 16 << 20
)

// errNotV3 reports a stream that does not open with the v3 magic.
var errNotV3 = errors.New("core: not a v3 indexed stream (this build reads only v3)")

// EmbeddingWindow is a decoded row window [Lo, Hi) of a stored embedding
// matrix — the unit of partial-embedding serving.
type EmbeddingWindow struct {
	Lo, Hi    int // row range [Lo, Hi)
	TotalRows int // rows of the full matrix the window was cut from
	Dim       int
	// Rows is the (Hi-Lo)×Dim window. Windowed decodes allocate it fresh;
	// in-memory windows may alias a shared Result — treat as read-only.
	Rows *mathx.Matrix
	// FullHash is the FNV-1a digest over the FULL embedding's row-major
	// float64 bits (mathx.DigestFloat64s) when the source recorded one
	// (v3 artifacts); 0 when unknown. It lets a client verify a window
	// against the hash the full-result API reports.
	FullHash uint64
}

// FrameWriter writes the v3 frame stream, tracking the absolute byte
// offset of everything it emits so the index can be built as a side effect
// of writing the chunks.
type FrameWriter struct {
	w    io.Writer
	off  int64
	buf  bytes.Buffer
	word [8]byte
}

// NewFrameWriter wraps w, counting offsets from w's current position as 0.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Offset returns the absolute byte offset of the next write.
func (fw *FrameWriter) Offset() int64 { return fw.off }

func (fw *FrameWriter) writeRaw(p []byte) error {
	n, err := fw.w.Write(p)
	fw.off += int64(n)
	return err
}

func (fw *FrameWriter) writeWord(v uint64) error {
	binary.BigEndian.PutUint64(fw.word[:], v)
	return fw.writeRaw(fw.word[:])
}

// WriteStreamMagic emits the 8-byte v3 stream marker; it must be the first
// write, so readers can reject any other stream before decoding a byte of
// it.
func (fw *FrameWriter) WriteStreamMagic() error { return fw.writeWord(streamMagicV3) }

// WriteFrame gob-encodes v with a fresh encoder and writes it as one
// length-prefixed frame, returning the frame's starting byte offset.
func (fw *FrameWriter) WriteFrame(v any) (int64, error) {
	start := fw.off
	fw.buf.Reset()
	if err := gob.NewEncoder(&fw.buf).Encode(v); err != nil {
		return 0, err
	}
	if err := fw.writeWord(uint64(fw.buf.Len())); err != nil {
		return 0, err
	}
	return start, fw.writeRaw(fw.buf.Bytes())
}

// writeTrailer emits the fixed 16-byte tail pointing back at the index.
func (fw *FrameWriter) writeTrailer(indexOff int64) error {
	if err := fw.writeWord(uint64(indexOff)); err != nil {
		return err
	}
	return fw.writeWord(indexMagicV3)
}

// CountingReader tracks the absolute stream position of sequential reads.
// All v3 frame reads are exact (io.ReadFull of a declared length), so the
// count equals the byte offset within the stream — which is how a
// sequential decode cross-checks the recorded index offsets.
type CountingReader struct {
	r   io.Reader
	off int64
}

func (cr *CountingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.off += int64(n)
	return n, err
}

// Offset returns the number of bytes consumed so far.
func (cr *CountingReader) Offset() int64 { return cr.off }

// ReadStreamMagic consumes the 8-byte v3 stream marker from r and returns
// a CountingReader positioned after it. Any other head is an error: the v3
// indexed stream is the only format this build reads.
func ReadStreamMagic(r io.Reader) (*CountingReader, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("core: reading stream head: %w", err)
	}
	if binary.BigEndian.Uint64(head[:]) != streamMagicV3 {
		return nil, errNotV3
	}
	return &CountingReader{r: r, off: 8}, nil
}

// readFrameInto reads one length-prefixed frame from r into v, reusing
// *scratch for the payload. limit bounds the declared payload length
// (maxFrameBytes when the caller knows nothing tighter).
func readFrameInto(r io.Reader, v any, scratch *[]byte, limit int64) error {
	var word [8]byte
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return fmt.Errorf("reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint64(word[:])
	if n > uint64(limit) {
		return fmt.Errorf("frame claims %d bytes, limit %d", n, limit)
	}
	buf, err := readClaimed(r, *scratch, int(n))
	*scratch = buf
	if err != nil {
		return fmt.Errorf("reading %d-byte frame: %w", n, err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(v); err != nil {
		return fmt.Errorf("decoding frame: %w", err)
	}
	return nil
}

// frameAllocStep is how far a frame read may allocate ahead of the bytes
// it has received: one step holds a whole chunk frame, so the usual read
// allocates once.
const frameAllocStep = 128 << 10

// readClaimed reads exactly n bytes from r, reusing buf's capacity. A
// length prefix is a claim, not a proof, so beyond that capacity the
// buffer grows only as bytes arrive — never more than max(bytes read,
// frameAllocStep) ahead of them — and a prefix that overstates the stream
// costs memory in proportion to the bytes actually there.
func readClaimed(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, len(buf)+max(len(buf), frameAllocStep)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// ReadFrameSeq decodes the next frame of a sequential v3 stream into v.
func ReadFrameSeq(cr *CountingReader, v any) error {
	var scratch []byte
	return readFrameInto(cr, v, &scratch, maxFrameBytes)
}

// ReadFrameAt decodes the frame starting at byte off of a random-access
// stream of the given total size into v.
func ReadFrameAt(ra io.ReaderAt, off, size int64, v any) error {
	var scratch []byte
	return readFrameAtInto(ra, off, size, v, &scratch)
}

func readFrameAtInto(ra io.ReaderAt, off, size int64, v any, scratch *[]byte) error {
	if off < 0 || off+8 > size {
		return fmt.Errorf("frame offset %d outside %d-byte stream", off, size)
	}
	limit := size - off - 8
	if limit > maxFrameBytes {
		limit = maxFrameBytes
	}
	sr := io.NewSectionReader(ra, off, size-off)
	return readFrameInto(sr, v, scratch, limit)
}

// RowIndex maps matrix rows to the chunk frames of a v3 indexed stream.
// Win and Wout share one shape; each offset slice holds the absolute byte
// offset of every chunk frame of that matrix, in order.
type RowIndex struct {
	ChunkFloats int // values per full chunk frame
	Rows, Cols  int
	Win, Wout   []int64
}

// chunkValues returns how many values chunk c of a Rows×Cols matrix holds
// (ChunkFloats, except a shorter final chunk).
func (ix *RowIndex) chunkValues(c int) int {
	total := ix.Rows * ix.Cols
	if rest := total - c*ix.ChunkFloats; rest < ix.ChunkFloats {
		return rest
	}
	return ix.ChunkFloats
}

// chunkCount is the number of chunk frames each matrix spans.
func chunkCount(total, per int) int {
	if total == 0 {
		return 0
	}
	return (total + per - 1) / per
}

// validate rejects an index that could not have been written by
// WriteIndexedMats over a size-byte stream: wrong chunk counts,
// non-increasing or out-of-range offsets, or an impossible shape.
func (ix *RowIndex) validate(size int64) error {
	switch {
	case ix.ChunkFloats < 1:
		return fmt.Errorf("index chunk size %d", ix.ChunkFloats)
	case ix.Rows < 0 || ix.Cols < 0 || (ix.Cols > 0 && ix.Rows > int(^uint(0)>>1)/ix.Cols):
		return fmt.Errorf("index claims impossible shape %dx%d", ix.Rows, ix.Cols)
	}
	want := chunkCount(ix.Rows*ix.Cols, ix.ChunkFloats)
	if len(ix.Win) != want || len(ix.Wout) != want {
		return fmt.Errorf("index has %d/%d chunk offsets, want %d", len(ix.Win), len(ix.Wout), want)
	}
	prev := int64(7) // offsets start after the 8-byte stream magic
	for _, offs := range [][]int64{ix.Win, ix.Wout} {
		for _, off := range offs {
			if off <= prev || off >= size-trailerBytes {
				return fmt.Errorf("chunk offset %d outside (%d, %d)", off, prev, size-trailerBytes)
			}
			prev = off
		}
	}
	return nil
}

// writeChunkFramesMat emits a Mat's row-major values as chunk frames,
// staging rows through one chunkFloats buffer so memory stays O(chunk)
// over any tier — including a spill-backed matrix, whose rows stream
// through its LRU window. Chunk boundaries fall at multiples of
// chunkFloats over the flattened row-major array, independent of row
// width and storage tier, so equal values always encode to equal bytes.
func writeChunkFramesMat(fw *FrameWriter, m mathx.Mat) ([]int64, error) {
	rows, cols := m.NumRows(), m.NumCols()
	offs := make([]int64, 0, chunkCount(rows*cols, chunkFloats))
	buf := make([]float64, 0, chunkFloats)
	flush := func() error {
		start, err := fw.WriteFrame(buf)
		if err != nil {
			return err
		}
		offs = append(offs, start)
		buf = buf[:0]
		return nil
	}
	for i := 0; i < rows; i++ {
		row := mathx.ReadRow(m, i)
		for len(row) > 0 {
			take := chunkFloats - len(buf)
			if take > len(row) {
				take = len(row)
			}
			buf = append(buf, row[:take]...)
			row = row[take:]
			if len(buf) == chunkFloats {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return offs, nil
}

// WriteIndexedMats writes the chunk frames of both matrices, the RowIndex
// frame, and the trailer — the whole stream after the caller's header
// frame. It never needs either matrix dense: one 64 KiB block is the
// largest thing buffered, so the artifact store persists a spill-backed
// result at O(chunk) memory, and a checkpoint's slices stream as-is.
func WriteIndexedMats(fw *FrameWriter, win, wout mathx.Mat) error {
	rows, cols := win.NumRows(), win.NumCols()
	if wout.NumRows() != rows || wout.NumCols() != cols {
		return fmt.Errorf("core: indexed write of mismatched shapes %dx%d and %dx%d",
			rows, cols, wout.NumRows(), wout.NumCols())
	}
	ix := &RowIndex{ChunkFloats: chunkFloats, Rows: rows, Cols: cols}
	var err error
	if ix.Win, err = writeChunkFramesMat(fw, win); err != nil {
		return err
	}
	if ix.Wout, err = writeChunkFramesMat(fw, wout); err != nil {
		return err
	}
	start, err := fw.WriteFrame(ix)
	if err != nil {
		return err
	}
	return fw.writeTrailer(start)
}

// ReadIndexedMatricesSeq reads both matrices, the index frame, and the
// trailer from a sequential v3 stream positioned just after its header
// frame. The recorded index is cross-checked against the offsets actually
// observed while reading, so a reordered, truncated, or spliced stream is
// rejected even on the streaming path that never seeks.
//
// The rows×cols shape comes from the caller's header, which is a claim,
// not a proof. size is the stream's total byte length when the caller
// knows it (a file), or 0 when it does not. Every value encodes to at
// least one byte, so a known size rejects a shape the stream cannot hold
// and otherwise lets each matrix be allocated once; with an unknown size
// each matrix grows as its chunk frames arrive. Either way memory stays
// proportional to the bytes read.
func ReadIndexedMatricesSeq(cr *CountingReader, rows, cols int, size int64) (win, wout []float64, err error) {
	if rows < 0 || cols < 0 || (cols > 0 && rows > int(^uint(0)>>1)/cols) {
		return nil, nil, fmt.Errorf("core: impossible shape %dx%d", rows, cols)
	}
	total := rows * cols
	prealloc := 0
	if size > 0 {
		if int64(total) > (size-cr.Offset())/2 {
			return nil, nil, fmt.Errorf("core: shape %dx%d cannot fit in a %d-byte stream", rows, cols, size)
		}
		prealloc = total
	}
	seen := &RowIndex{ChunkFloats: chunkFloats, Rows: rows, Cols: cols}
	var scratch []byte
	readMatrix := func() ([]float64, []int64, error) {
		dst := make([]float64, 0, prealloc)
		offs := make([]int64, 0, chunkCount(prealloc, chunkFloats))
		var blk []float64
		for len(dst) < total {
			start := cr.Offset()
			if err := readFrameInto(cr, &blk, &scratch, maxFrameBytes); err != nil {
				return nil, nil, err
			}
			if len(dst)+len(blk) > total {
				return nil, nil, fmt.Errorf("chunk overruns expected %d values", total)
			}
			dst = append(dst, blk...)
			offs = append(offs, start)
		}
		return dst, offs, nil
	}
	if win, seen.Win, err = readMatrix(); err != nil {
		return nil, nil, fmt.Errorf("core: reading Win chunks: %w", err)
	}
	if wout, seen.Wout, err = readMatrix(); err != nil {
		return nil, nil, fmt.Errorf("core: reading Wout chunks: %w", err)
	}
	indexStart := cr.Offset()
	var ix RowIndex
	if err := readFrameInto(cr, &ix, &scratch, maxFrameBytes); err != nil {
		return nil, nil, fmt.Errorf("core: reading row index: %w", err)
	}
	if ix.ChunkFloats != seen.ChunkFloats || ix.Rows != rows || ix.Cols != cols ||
		!int64sEqual(ix.Win, seen.Win) || !int64sEqual(ix.Wout, seen.Wout) {
		return nil, nil, fmt.Errorf("core: row index does not match the chunk frames it describes")
	}
	var trailer [trailerBytes]byte
	if _, err := io.ReadFull(cr, trailer[:]); err != nil {
		return nil, nil, fmt.Errorf("core: reading index trailer: %w", err)
	}
	if got := int64(binary.BigEndian.Uint64(trailer[:8])); got != indexStart {
		return nil, nil, fmt.Errorf("core: trailer points at %d, index frame is at %d", got, indexStart)
	}
	if binary.BigEndian.Uint64(trailer[8:]) != indexMagicV3 {
		return nil, nil, fmt.Errorf("core: corrupt index trailer magic")
	}
	return win, wout, nil
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ReadRowIndex locates and validates the RowIndex of a random-access v3
// stream. A stream without the leading v3 magic, or with a damaged index
// or trailer, returns a descriptive error.
func ReadRowIndex(ra io.ReaderAt, size int64) (*RowIndex, error) {
	var head [8]byte
	if size >= 8 {
		if _, err := ra.ReadAt(head[:], 0); err != nil {
			return nil, fmt.Errorf("core: reading stream head: %w", err)
		}
	}
	if size < 8 || binary.BigEndian.Uint64(head[:]) != streamMagicV3 {
		return nil, errNotV3
	}
	if size < 8+trailerBytes {
		return nil, fmt.Errorf("core: %d-byte stream is too short for an index trailer", size)
	}
	var trailer [trailerBytes]byte
	if _, err := ra.ReadAt(trailer[:], size-trailerBytes); err != nil {
		return nil, fmt.Errorf("core: reading index trailer: %w", err)
	}
	if binary.BigEndian.Uint64(trailer[8:]) != indexMagicV3 {
		return nil, fmt.Errorf("core: corrupt or truncated index trailer (stream claims v3)")
	}
	indexOff := int64(binary.BigEndian.Uint64(trailer[:8]))
	if indexOff < 8 || indexOff >= size-trailerBytes {
		return nil, fmt.Errorf("core: index offset %d outside stream of %d bytes", indexOff, size)
	}
	var ix RowIndex
	if err := ReadFrameAt(ra, indexOff, size-trailerBytes, &ix); err != nil {
		return nil, fmt.Errorf("core: reading row index: %w", err)
	}
	if err := ix.validate(size); err != nil {
		return nil, fmt.Errorf("core: invalid row index: %w", err)
	}
	return &ix, nil
}

// DecodeRows decodes rows [lo, hi) of one matrix of an indexed stream,
// given that matrix's chunk offsets (ix.Win or ix.Wout). Only the chunk
// frames intersecting the window are read and decoded, so memory and I/O
// are O((hi-lo)·Cols + one chunk) — independent of the full matrix size.
func (ix *RowIndex) DecodeRows(ra io.ReaderAt, offsets []int64, size int64, lo, hi int) (*mathx.Matrix, error) {
	if lo < 0 || hi < lo || hi > ix.Rows {
		return nil, fmt.Errorf("core: row window [%d, %d) outside matrix with %d rows", lo, hi, ix.Rows)
	}
	out := mathx.NewMatrix(hi-lo, ix.Cols)
	if lo == hi || ix.Cols == 0 {
		return out, nil
	}
	first := lo * ix.Cols / ix.ChunkFloats
	last := (hi*ix.Cols - 1) / ix.ChunkFloats
	if last >= len(offsets) {
		return nil, fmt.Errorf("core: window needs chunk %d, index has %d", last, len(offsets))
	}
	var (
		blk     []float64
		scratch []byte
	)
	for c := first; c <= last; c++ {
		blk = blk[:0]
		if err := readFrameAtInto(ra, offsets[c], size-trailerBytes, &blk, &scratch); err != nil {
			return nil, fmt.Errorf("core: reading chunk %d: %w", c, err)
		}
		if len(blk) != ix.chunkValues(c) {
			return nil, fmt.Errorf("core: chunk %d holds %d values, index expects %d", c, len(blk), ix.chunkValues(c))
		}
		// Copy the intersection of this chunk's value range with the
		// window's value range.
		base := c * ix.ChunkFloats
		s, e := base, base+len(blk)
		if w := lo * ix.Cols; s < w {
			s = w
		}
		if w := hi * ix.Cols; e > w {
			e = w
		}
		copy(out.Data[s-lo*ix.Cols:e-lo*ix.Cols], blk[s-base:e-base])
	}
	return out, nil
}
