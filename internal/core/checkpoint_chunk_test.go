package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"seprivgemb/internal/dp"
	"seprivgemb/internal/xrand"
)

// chunkCheckpoint builds a synthetic checkpoint whose matrices span the
// given number of values — sized by callers to cross chunk boundaries.
func chunkCheckpoint(nodes, dim int) *Checkpoint {
	total := nodes * dim
	win := make([]float64, total)
	wout := make([]float64, total)
	rng := xrand.New(99)
	for i := range win {
		win[i] = rng.Float64() - 0.5
		wout[i] = rng.Normal()
	}
	return &Checkpoint{
		Version:          checkpointVersion,
		ConfigHash:       0xfeedface,
		GraphFingerprint: 0xdeadbeef,
		Nodes:            nodes,
		Dim:              dim,
		Epoch:            17,
		Win:              win,
		Wout:             wout,
		RNG:              xrand.RNGState{S: [4]uint64{1, 2, 3, 4}, Gauss: 0.25, HasGauss: true},
		Noise:            42,
		HasAccountant:    true,
		Accountant:       dp.AccountantState{Orders: []int{2, 3}, Eps: []float64{0.1, 0.2}, Steps: 17},
		LossHistory:      []float64{3, 2.5, 2.25},
		EpsilonSpent:     1.5,
		DeltaSpent:       1e-6,
	}
}

// TestCheckpointChunkedRoundTrip: matrices larger than one chunk
// (chunkFloats values) stream as multiple v3 chunk frames and must
// reassemble bit-exactly, including an uneven final chunk.
func TestCheckpointChunkedRoundTrip(t *testing.T) {
	for _, tc := range []struct{ nodes, dim int }{
		{3, 5},                     // far below one chunk
		{1, chunkFloats},           // exactly one chunk
		{130, 64},                  // 8320 values: one full block + remainder
		{2*chunkFloats/64 + 1, 64}, // crosses two block boundaries
	} {
		ck := chunkCheckpoint(tc.nodes, tc.dim)
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			t.Fatalf("%dx%d: encode: %v", tc.nodes, tc.dim, err)
		}
		got, err := decodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%dx%d: decode: %v", tc.nodes, tc.dim, err)
		}
		if !reflect.DeepEqual(ck, got) {
			t.Errorf("%dx%d: chunked round trip changed the checkpoint", tc.nodes, tc.dim)
		}
	}
}

// decodeBytes decodes a whole in-memory checkpoint stream.
func decodeBytes(raw []byte) (*Checkpoint, error) {
	return DecodeCheckpoint(bytes.NewReader(raw), int64(len(raw)))
}

// forge writes a v3 stream of hdr and the given chunk frames — win's,
// then wout's — under an index that records their offsets but claims a
// rows×cols shape, closed by a valid trailer: framing WriteIndexed's own
// checks never let through, so a test reaches the reader's checks behind
// the trailer.
func forge(t *testing.T, hdr any, rows, cols int, win, wout [][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	ix := &RowIndex{ChunkFloats: chunkFloats, Rows: rows, Cols: cols}
	err := fw.writeWord(streamMagicV3)
	if err == nil {
		_, err = fw.writeFrame(hdr)
	}
	for _, m := range []struct {
		chunks [][]float64
		offs   *[]int64
	}{{win, &ix.Win}, {wout, &ix.Wout}} {
		for _, c := range m.chunks {
			off, werr := fw.writeFrame(c)
			err = errors.Join(err, werr)
			*m.offs = append(*m.offs, off)
		}
	}
	if err := errors.Join(err, reindex(fw, ix)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reindex writes ix as the index frame at fw's position, then the trailer
// pointing at it.
func reindex(fw *frameWriter, ix *RowIndex) error {
	start, err := fw.writeFrame(ix)
	if err == nil {
		err = fw.writeWord(uint64(start))
	}
	if err == nil {
		err = fw.writeWord(indexMagicV3)
	}
	return err
}

// pad inserts n zero bytes at byte at of the v3 stream raw, which must
// lie before its index frame, and rewrites the index and trailer to
// match: every recorded offset still lands on its frame, so only
// DecodeAll's tiling check can tell. edit, when set, alters the index
// before it is written.
func pad(t *testing.T, raw []byte, at int64, n int, edit func(*RowIndex)) []byte {
	t.Helper()
	var hdr checkpointHeader
	ix, err := OpenIndexed(bytes.NewReader(raw), int64(len(raw)), &hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, offs := range [][]int64{ix.Win, ix.Wout} {
		for i := range offs {
			if offs[i] >= at {
				offs[i] += int64(n)
			}
		}
	}
	if edit != nil {
		edit(ix)
	}
	var buf bytes.Buffer
	buf.Write(raw[:at])
	buf.Write(make([]byte, n))
	buf.Write(raw[at:ix.indexOff])
	if err := reindex(&frameWriter{w: &buf, off: int64(buf.Len())}, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointDecodeRejectsBadStreams: every stream the reader must
// refuse is an error, and each forged one reaches the check it names.
func TestCheckpointDecodeRejectsBadStreams(t *testing.T) {
	ck := chunkCheckpoint(4, 4)

	// Wrong version.
	bad := *ck
	bad.Version = checkpointVersion + 1
	if _, err := decodeBytes(encodeToBytes(t, &bad)); err == nil || !strings.Contains(err.Error(), "claims format") {
		t.Errorf("future-version checkpoint: err = %v, want a version error", err)
	}

	// Truncated matrix stream.
	raw := encodeToBytes(t, ck)
	if _, err := decodeBytes(raw[:len(raw)-10]); err == nil {
		t.Error("truncated checkpoint accepted")
	}

	// A chunk that overruns the declared shape.
	over := forge(t, &checkpointHeader{Version: checkpointVersion, Nodes: 2, Dim: 2}, 2, 2,
		[][]float64{make([]float64, 100)}, [][]float64{make([]float64, 4)}) // claims 4, sends 100
	if _, err := decodeBytes(over); err == nil || !strings.Contains(err.Error(), "holds 100 values, index expects 4") {
		t.Errorf("overlong chunk: err = %v, want an overrun error", err)
	}

	// An impossible shape must be rejected before allocation.
	neg := forge(t, &checkpointHeader{Version: checkpointVersion, Nodes: -1, Dim: 8}, -1, 8, nil, nil)
	if _, err := decodeBytes(neg); err == nil || !strings.Contains(err.Error(), "impossible shape") {
		t.Errorf("negative shape: err = %v, want an impossible-shape error", err)
	}

	// Spliced and reordered streams whose index was rewritten to match:
	// every recorded offset lands on a frame, so only the tiling check or
	// the index's offset order can tell. Two chunks per matrix.
	raw = encodeToBytes(t, chunkCheckpoint(130, 64))
	var hdr checkpointHeader
	ix, err := OpenIndexed(bytes.NewReader(raw), int64(len(raw)), &hdr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBytes(pad(t, raw, ix.headerEnd, 0, nil)); err != nil {
		t.Fatalf("a rewritten index with nothing spliced: %v", err)
	}
	for _, tc := range []struct {
		name string
		at   int64
		n    int
		edit func(*RowIndex)
		want string
	}{
		{"padding after the header", ix.headerEnd, 8, nil,
			fmt.Sprintf("Win: chunk 0 at %d, previous frame ended at %d", ix.headerEnd+8, ix.headerEnd)},
		{"padding between the matrices", ix.Wout[0], 8, nil,
			fmt.Sprintf("Wout: chunk 0 at %d, previous frame ended at %d", ix.Wout[0]+8, ix.Wout[0])},
		{"padding before the index", ix.indexOff, 8, nil,
			fmt.Sprintf("index at %d, last frame ended at %d", ix.indexOff+8, ix.indexOff)},
		{"reordered chunks", ix.indexOff, 0, func(ix *RowIndex) { ix.Win[0], ix.Win[1] = ix.Win[1], ix.Win[0] },
			"chunk offset"},
	} {
		if _, err := decodeBytes(pad(t, raw, tc.at, tc.n, tc.edit)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to say %q", tc.name, err, tc.want)
		}
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeCheckpointHostileClaims: a header's shape, an index's shape
// and a frame's length prefix are claims the decoder must not allocate for
// up front. A stream whose header claims 2^17×2^17 (a 128 GiB pair of
// matrices) over a one-chunk index, one whose index claims that shape
// too, and one whose first chunk frame claims 16 MiB are errors that
// allocate under 1 MiB each — not an out-of-memory crash.
func TestDecodeCheckpointHostileClaims(t *testing.T) {
	hdr := chunkCheckpoint(1, 1).header()
	hdr.Nodes, hdr.Dim = 1<<17, 1<<17
	chunk := [][]float64{make([]float64, 8)}
	headerClaim := forge(t, &hdr, 1, 8, chunk, chunk)
	indexClaim := forge(t, &hdr, 1<<17, 1<<17, nil, nil)

	// Claim a maximal frame where the first chunk frame starts.
	lengthClaim := encodeToBytes(t, chunkCheckpoint(4, 4))
	var h checkpointHeader
	ix, err := OpenIndexed(bytes.NewReader(lengthClaim), int64(len(lengthClaim)), &h)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(lengthClaim[ix.Win[0]:], maxFrameBytes)

	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"header shape", headerClaim, "disagrees with index"},
		{"index shape", indexClaim, "cannot fit"},
		{"frame length", lengthClaim, "frame claims"},
	} {
		var err error
		n := allocated(func() { _, err = decodeBytes(tc.stream) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s claim: %d-byte stream: err = %v, want it to say %q", tc.name, len(tc.stream), err, tc.want)
		}
		if n >= 1<<20 {
			t.Errorf("%s claim: decoding a %d-byte stream allocated %d bytes, want < 1 MiB", tc.name, len(tc.stream), n)
		}
	}
}

// gobClaimCap bounds encoding/gob's own claim-sized allocation: inside a
// frame it pre-sizes a message or slice from its declared length, capped
// at 10 MiB, and a claim the frame cannot back fails the decode, so at
// most one such allocation happens per call.
const gobClaimCap = 10 << 20

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder, a
// hostile-input surface (a resumed run's file). Whatever arrives, it
// returns an error or a checkpoint whose matrices match its shape — never
// a panic, and never an allocation sized by a shape or frame length the
// input claims: memory stays within a fixed allowance plus a constant
// multiple of the input's length, plus gobClaimCap.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, shape := range [][2]int{{4, 4}, {130, 64}} {
		var buf bytes.Buffer
		if err := chunkCheckpoint(shape[0], shape[1]).Encode(&buf); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		for _, n := range []int{0, 8, 16, len(raw) / 2, len(raw) - trailerBytes, len(raw) - 1} {
			f.Add(raw[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			ck  *Checkpoint
			err error
		)
		n := allocated(func() { ck, err = decodeBytes(data) })
		if bound := uint64(1<<20 + gobClaimCap + 256*len(data)); n > bound {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), n, bound)
		}
		if err != nil {
			return
		}
		if len(ck.Win) != ck.Nodes*ck.Dim || len(ck.Wout) != ck.Nodes*ck.Dim {
			t.Fatalf("decoded %d/%d values for shape %dx%d", len(ck.Win), len(ck.Wout), ck.Nodes, ck.Dim)
		}
	})
}
