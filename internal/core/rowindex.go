package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

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
// Every frame is [8-byte big-endian payload length][payload], and every
// payload is what a FRESH gob.Encoder writes for one value: the type
// definition, then the value. Repeating the definition per frame (24 bytes
// for a chunk's []float64) is negligible against 64 KiB and buys random
// access: any frame decodes in isolation given its offset, which is what
// lets a windowed read seek straight to the two or three chunks covering
// its rows instead of replaying the whole stream. The header and index
// frames are encoded by encoding/gob; the chunk frames are encoded by
// hand (writeFloatsFrame), byte for byte as gob would, so the writer
// builds no encoder per 64 KiB. Every frame is decoded by a fresh
// gob.Decoder. There is one writer, WriteIndexed, and one reader:
// OpenIndexed locates the index and the header, and every decode — a
// window or both matrices whole — goes through the index.
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

// frameWriter writes the v3 frame stream, tracking the absolute byte
// offset of everything it emits so the index can be built as a side effect
// of writing the chunks. buf is writeFloatsFrame's frame buffer, reused
// for every chunk.
type frameWriter struct {
	w    io.Writer
	off  int64
	buf  []byte
	word [8]byte
}

func (fw *frameWriter) writeRaw(p []byte) error {
	n, err := fw.w.Write(p)
	fw.off += int64(n)
	return err
}

func (fw *frameWriter) writeWord(v uint64) error {
	binary.BigEndian.PutUint64(fw.word[:], v)
	return fw.writeRaw(fw.word[:])
}

// writeFrame gob-encodes v with a fresh encoder and writes it as one
// length-prefixed frame, returning the frame's starting byte offset. The
// header and the index go through it; chunks go through writeFloatsFrame.
func (fw *frameWriter) writeFrame(v any) (int64, error) {
	start := fw.off
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, err
	}
	if err := fw.writeWord(uint64(buf.Len())); err != nil {
		return 0, err
	}
	return start, fw.writeRaw(buf.Bytes())
}

// Gob numbers a type the first time the process encodes it (user ids
// start at 64) and writes that number into every frame, so left alone a
// frame's bytes would depend on what the process happened to encode
// first. init encodes the frame types in a fixed order, before any code
// that imports this package runs (none of the packages it imports uses
// gob), which pins their ids: checkpointHeader and the types it contains,
// among them []float64, then RowIndex; the artifact store's header
// follows at its own package init. It then derives the fixed parts of a
// chunk frame from gob itself: floatsTypeDef, the whole type-definition
// message for []float64, and floatsTypeID, its id in gob's integer
// encoding, which opens the value message.
var floatsTypeDef, floatsTypeID []byte

func init() {
	for _, v := range []any{checkpointHeader{}, []float64{}, RowIndex{}} {
		if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
			panic(err)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode([]float64{0}); err != nil {
		panic(err)
	}
	// buf holds [len][type definition] [len][id 00 01 00], both messages
	// short enough for a one-byte length.
	b := buf.Bytes()
	if b[0] >= 0x80 || len(b) < 1+int(b[0])+5 {
		panic("core: unexpected gob encoding of []float64")
	}
	floatsTypeDef = b[:1+b[0]]
	floatsTypeID = b[len(floatsTypeDef)+1 : len(b)-3]
}

// appendGobUint appends x in gob's unsigned-integer encoding: one byte
// below 0x80, else the negated byte count and the big-endian bytes
// without leading zeros.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	n := 8 - bits.LeadingZeros64(x)/8
	b = append(b, byte(-n))
	b = binary.BigEndian.AppendUint64(b, x<<(64-8*n))
	return b[:len(b)-(8-n)]
}

// gobFloat is gob's wire form of a float64: its bits, byte-reversed so
// that the usual short mantissas encode in few bytes.
func gobFloat(v float64) uint64 { return bits.ReverseBytes64(math.Float64bits(v)) }

// writeFloatsFrame writes vals as one chunk frame and returns the frame's
// starting byte offset. The payload is exactly what a fresh gob.Encoder
// writes for the []float64 in this process: the type-definition message
// floatsTypeDef, then the value message [len][floatsTypeID][00][count]
// [count values]. The frame is built in fw.buf, reused across frames: the
// value message goes in after room for the three prefixes, whose widths
// are known only once it is, and they are then written backwards in front
// of it.
func (fw *frameWriter) writeFloatsFrame(vals []float64) (int64, error) {
	head := 8 + len(floatsTypeDef) + 9 // frame length, type definition, widest message length
	b := append(fw.buf[:0], make([]byte, head)...)
	b = append(b, floatsTypeID...)
	b = append(b, 0)
	b = appendGobUint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendGobUint(b, gobFloat(v))
	}
	var lenBuf [9]byte
	msgLen := appendGobUint(lenBuf[:0], uint64(len(b)-head))
	start := head - len(msgLen) - len(floatsTypeDef) - 8
	copy(b[head-len(msgLen):], msgLen)
	copy(b[start+8:], floatsTypeDef)
	binary.BigEndian.PutUint64(b[start:], uint64(len(b)-start-8))
	fw.buf = b
	off := fw.off
	return off, fw.writeRaw(b[start:])
}

// readFrameAt decodes the frame starting at byte off of ra into v, reusing
// *scratch for the payload, and returns the offset just past the frame.
// end is where the frame must end by (the stream's size less the trailer,
// or the index offset for the header). A length prefix is a claim, not a
// proof: one reaching past end, or past maxFrameBytes, is rejected before
// anything is allocated for it, so a payload buffer never outgrows the
// bytes actually there.
func readFrameAt(ra io.ReaderAt, off, end int64, v any, scratch *[]byte) (int64, error) {
	if off < 0 || off+8 > end {
		return 0, fmt.Errorf("frame offset %d outside the %d bytes of frames", off, end)
	}
	sr := io.NewSectionReader(ra, off, end-off)
	var word [8]byte
	if _, err := io.ReadFull(sr, word[:]); err != nil {
		return 0, fmt.Errorf("reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint64(word[:])
	if limit := min(end-off-8, maxFrameBytes); n > uint64(limit) {
		return 0, fmt.Errorf("frame claims %d bytes, limit %d", n, limit)
	}
	if uint64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := io.ReadFull(sr, buf); err != nil {
		return 0, fmt.Errorf("reading %d-byte frame: %w", n, err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(v); err != nil {
		return 0, fmt.Errorf("decoding frame: %w", err)
	}
	return off + 8 + int64(n), nil
}

// RowIndex maps matrix rows to the chunk frames of a v3 indexed stream.
// Win and Wout share one shape; each offset slice holds the absolute byte
// offset of every chunk frame of that matrix, in order.
type RowIndex struct {
	ChunkFloats int // values per full chunk frame
	Rows, Cols  int
	Win, Wout   []int64
	// headerEnd and indexOff are where the header frame ends and where
	// the index frame starts. OpenIndexed sets them (they are not part of
	// the encoded index) so DecodeAll can check that the chunk frames
	// tile the bytes between the two.
	headerEnd, indexOff int64
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
// WriteIndexed over a size-byte stream: a foreign chunk size, an
// impossible shape, more values than the stream has bytes for, wrong
// chunk counts, or non-increasing or out-of-range offsets. Every value
// encodes to at least one byte in each matrix, so Rows·Cols ≤ size/2, and
// a whole-matrix decode allocates in proportion to the stream's bytes.
func (ix *RowIndex) validate(size int64) error {
	switch {
	case ix.ChunkFloats != chunkFloats:
		return fmt.Errorf("index chunk size %d, want %d", ix.ChunkFloats, chunkFloats)
	case ix.Rows < 0 || ix.Cols < 0 || (ix.Cols > 0 && ix.Rows > int(^uint(0)>>1)/ix.Cols):
		return fmt.Errorf("index claims impossible shape %dx%d", ix.Rows, ix.Cols)
	case int64(ix.Rows*ix.Cols) > size/2:
		return fmt.Errorf("index shape %dx%d cannot fit in a %d-byte stream", ix.Rows, ix.Cols, size)
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
// It fails with the matrix's spill error (mathx.MatErr) if one is set once
// every row is read.
func writeChunkFramesMat(fw *frameWriter, m mathx.Mat) ([]int64, error) {
	rows, cols := m.NumRows(), m.NumCols()
	offs := make([]int64, 0, chunkCount(rows*cols, chunkFloats))
	buf := make([]float64, 0, chunkFloats)
	scratch := make([]float64, cols)
	flush := func() error {
		start, err := fw.writeFloatsFrame(buf)
		if err != nil {
			return err
		}
		offs = append(offs, start)
		buf = buf[:0]
		return nil
	}
	for i := 0; i < rows; i++ {
		row := mathx.ReadRow(m, i, scratch)
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
	return offs, mathx.MatErr(m)
}

// WriteIndexed writes a whole v3 stream to w: the stream magic, hdr (a
// caller-defined gob struct) as the header frame, the chunk frames of
// both matrices, the RowIndex frame, and the trailer. It never needs
// either matrix dense: one chunk is the largest thing buffered (its 64 KiB
// of values and its frame, built in one buffer reused for every chunk), so
// the artifact store persists a spill-backed result at O(chunk) memory,
// and a checkpoint's slices stream as-is. A nil wout, as a shrunk
// Result holds, is an error.
func WriteIndexed(w io.Writer, hdr any, win, wout mathx.Mat) error {
	if wout == nil {
		return fmt.Errorf("core: indexed write without Wout (a shrunk result keeps Win only)")
	}
	rows, cols := win.NumRows(), win.NumCols()
	if wout.NumRows() != rows || wout.NumCols() != cols {
		return fmt.Errorf("core: indexed write of mismatched shapes %dx%d and %dx%d",
			rows, cols, wout.NumRows(), wout.NumCols())
	}
	fw := &frameWriter{w: w}
	if err := fw.writeWord(streamMagicV3); err != nil {
		return err
	}
	if _, err := fw.writeFrame(hdr); err != nil {
		return err
	}
	ix := &RowIndex{ChunkFloats: chunkFloats, Rows: rows, Cols: cols}
	var err error
	if ix.Win, err = writeChunkFramesMat(fw, win); err != nil {
		return err
	}
	if ix.Wout, err = writeChunkFramesMat(fw, wout); err != nil {
		return err
	}
	start, err := fw.writeFrame(ix)
	if err != nil {
		return err
	}
	if err := fw.writeWord(uint64(start)); err != nil {
		return err
	}
	return fw.writeWord(indexMagicV3)
}

// OpenIndexed reads the trailer, the validated RowIndex and the header
// frame (decoded into hdr) of the size-byte v3 stream ra. Everything
// after it — a row window (DecodeRows) or both matrices whole (DecodeAll)
// — goes through the returned index. A stream without the leading v3
// magic, or with a damaged trailer, index or header, is a descriptive
// error.
func OpenIndexed(ra io.ReaderAt, size int64, hdr any) (*RowIndex, error) {
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
	var (
		ix      RowIndex
		scratch []byte
	)
	if _, err := readFrameAt(ra, indexOff, size-trailerBytes, &ix, &scratch); err != nil {
		return nil, fmt.Errorf("core: reading row index: %w", err)
	}
	if err := ix.validate(size); err != nil {
		return nil, fmt.Errorf("core: invalid row index: %w", err)
	}
	ix.indexOff = indexOff
	var err error
	if ix.headerEnd, err = readFrameAt(ra, 8, indexOff, hdr, &scratch); err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	return &ix, nil
}

// readChunk decodes chunk c of one matrix, whose frame starts at off, into
// *blk and returns the offset just past the frame. A chunk that does not
// hold exactly the values the index assigns it is an error.
func (ix *RowIndex) readChunk(ra io.ReaderAt, size, off int64, c int, blk *[]float64, scratch *[]byte) (int64, error) {
	*blk = (*blk)[:0]
	end, err := readFrameAt(ra, off, size-trailerBytes, blk, scratch)
	if err != nil {
		return 0, fmt.Errorf("reading chunk %d: %w", c, err)
	}
	if n, want := len(*blk), ix.chunkValues(c); n != want {
		return 0, fmt.Errorf("chunk %d holds %d values, index expects %d", c, n, want)
	}
	return end, nil
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
		if _, err := ix.readChunk(ra, size, offsets[c], c, &blk, &scratch); err != nil {
			return nil, fmt.Errorf("core: %w", err)
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

// DecodeAll decodes both matrices whole from the stream OpenIndexed opened
// ix on. It also checks that the frames tile the stream — the first chunk
// starts where the header ends, each chunk where the previous frame ended,
// and the index where the last chunk ended — so a spliced, padded or
// reordered stream is an error even when every offset the index records
// lands on a frame. validate bounded Rows·Cols by the stream's size, so
// each matrix is allocated once, in proportion to the bytes on disk.
func (ix *RowIndex) DecodeAll(ra io.ReaderAt, size int64) (win, wout []float64, err error) {
	next := ix.headerEnd
	var (
		blk     []float64
		scratch []byte
	)
	decode := func(offsets []int64) ([]float64, error) {
		dst := make([]float64, 0, ix.Rows*ix.Cols)
		for c, off := range offsets {
			if off != next {
				return nil, fmt.Errorf("chunk %d at %d, previous frame ended at %d", c, off, next)
			}
			end, err := ix.readChunk(ra, size, off, c, &blk, &scratch)
			if err != nil {
				return nil, err
			}
			dst = append(dst, blk...)
			next = end
		}
		return dst, nil
	}
	if win, err = decode(ix.Win); err != nil {
		return nil, nil, fmt.Errorf("core: Win: %w", err)
	}
	if wout, err = decode(ix.Wout); err != nil {
		return nil, nil, fmt.Errorf("core: Wout: %w", err)
	}
	if ix.indexOff != next {
		return nil, nil, fmt.Errorf("core: index at %d, last frame ended at %d", ix.indexOff, next)
	}
	return win, wout, nil
}
