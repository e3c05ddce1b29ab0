package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"seprivgemb/internal/proximity"
)

// encodeToBytes round-trips ck through Encode.
func encodeToBytes(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointWindowedDecodeMatchesFull is the core windowed-read
// contract: DecodeCheckpointRows of any [lo, hi) must be bit-identical to
// the same rows of a full DecodeCheckpoint, across shapes that keep a
// window inside one chunk, straddle chunk boundaries, and span the
// uneven final chunk.
func TestCheckpointWindowedDecodeMatchesFull(t *testing.T) {
	for _, tc := range []struct{ nodes, dim int }{
		{3, 5},                     // far below one chunk
		{1, chunkFloats},           // exactly one chunk
		{130, 64},                  // one full block + remainder
		{2*chunkFloats/64 + 1, 64}, // crosses two block boundaries
		{1000, 17},                 // rows not aligned to the chunk size
	} {
		ck := chunkCheckpoint(tc.nodes, tc.dim)
		raw := encodeToBytes(t, ck)
		full, err := decodeBytes(raw)
		if err != nil {
			t.Fatalf("%dx%d: full decode: %v", tc.nodes, tc.dim, err)
		}
		if !reflect.DeepEqual(ck, full) {
			t.Fatalf("%dx%d: v3 round trip changed the checkpoint", tc.nodes, tc.dim)
		}
		windows := [][2]int{
			{0, tc.nodes},            // everything
			{0, 1},                   // first row
			{tc.nodes - 1, tc.nodes}, // last row
			{tc.nodes / 3, tc.nodes/3 + 1},
			{tc.nodes / 4, 3 * tc.nodes / 4}, // interior span
			{5, 5},                           // empty window
		}
		for _, w := range windows {
			lo, hi := w[0], w[1]
			if lo > tc.nodes || hi > tc.nodes || lo > hi {
				continue
			}
			win, err := DecodeCheckpointRows(bytes.NewReader(raw), int64(len(raw)), lo, hi)
			if err != nil {
				t.Fatalf("%dx%d rows [%d,%d): %v", tc.nodes, tc.dim, lo, hi, err)
			}
			if win.TotalRows != tc.nodes || win.Dim != tc.dim || win.Lo != lo || win.Hi != hi {
				t.Fatalf("%dx%d rows [%d,%d): window metadata %+v", tc.nodes, tc.dim, lo, hi, win)
			}
			want := ck.Win[lo*tc.dim : hi*tc.dim]
			if !reflect.DeepEqual(win.Rows.Data, append([]float64{}, want...)) {
				t.Errorf("%dx%d rows [%d,%d): windowed decode diverges from the full matrix",
					tc.nodes, tc.dim, lo, hi)
			}
		}
	}
}

// TestDecodeRejectsNonV3Streams: v3 is the only format read. A stream in
// any other layout — here a bare gob header, as earlier builds wrote — is
// an error on both the full and the windowed path, and the full decode's
// error names the version this build reads.
func TestDecodeRejectsNonV3Streams(t *testing.T) {
	ck := chunkCheckpoint(130, 64)
	var buf bytes.Buffer
	hdr := ck.header()
	if err := gob.NewEncoder(&buf).Encode(&hdr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, err := decodeBytes(raw)
	if err == nil || !strings.Contains(err.Error(), "v3") {
		t.Errorf("full decode of a non-v3 stream: err = %v, want an error naming v3", err)
	}
	if _, err := DecodeCheckpointRows(bytes.NewReader(raw), int64(len(raw)), 0, 10); err == nil {
		t.Error("row window of a non-v3 stream accepted")
	}
}

// TestRowWindowRejectsCorruption: a stream that CLAIMS v3 but has a
// damaged index or trailer must fail with a descriptive error, never a
// silent wrong answer.
func TestRowWindowRejectsCorruption(t *testing.T) {
	ck := chunkCheckpoint(130, 64)
	raw := encodeToBytes(t, ck)

	t.Run("flipped trailer magic", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		bad[len(bad)-1] ^= 0xff
		_, err := DecodeCheckpointRows(bytes.NewReader(bad), int64(len(bad)), 0, 10)
		if err == nil {
			t.Errorf("corrupt trailer: err = %v, want a corruption error", err)
		}
		// The full decode must reject it too.
		if _, err := decodeBytes(bad); err == nil {
			t.Error("full decode accepted a corrupt trailer")
		}
	})

	t.Run("zeroed index frame", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		idxOff := binary.BigEndian.Uint64(bad[len(bad)-16 : len(bad)-8])
		for i := idxOff + 8; i < uint64(len(bad)-16); i++ {
			bad[i] = 0
		}
		_, err := DecodeCheckpointRows(bytes.NewReader(bad), int64(len(bad)), 0, 10)
		if err == nil {
			t.Errorf("zeroed index: err = %v, want a corruption error", err)
		}
		if _, err := decodeBytes(bad); err == nil {
			t.Error("full decode accepted a zeroed index")
		}
	})

	t.Run("truncated stream", func(t *testing.T) {
		bad := raw[:len(raw)-24] // cuts trailer and into the index frame
		_, err := DecodeCheckpointRows(bytes.NewReader(bad), int64(len(bad)), 0, 10)
		if err == nil {
			t.Errorf("truncated stream: err = %v, want a corruption error", err)
		}
	})

	t.Run("window out of range", func(t *testing.T) {
		for _, w := range [][2]int{{-1, 5}, {5, 3}, {0, 131}} {
			if _, err := DecodeCheckpointRows(bytes.NewReader(raw), int64(len(raw)), w[0], w[1]); err == nil {
				t.Errorf("window [%d,%d) accepted", w[0], w[1])
			}
		}
	})
}

// TestResultRows pins the in-memory window API: views, not copies, and
// errors (not panics) on bad ranges.
func TestResultRows(t *testing.T) {
	g := quickGraph(t)
	cfg := quickCfg()
	cfg.MaxEpochs = 2
	res, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	emb := res.Embedding()
	win, err := res.Rows(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if win.Rows != 10 || win.Cols != emb.Cols {
		t.Fatalf("window shape %dx%d", win.Rows, win.Cols)
	}
	if &win.Data[0] != &emb.Data[10*emb.Cols] {
		t.Error("Rows copied instead of viewing")
	}
	for _, w := range [][2]int{{-1, 5}, {5, 3}, {0, emb.Rows + 1}} {
		if _, err := res.Rows(w[0], w[1]); err == nil {
			t.Errorf("Rows(%d, %d) accepted", w[0], w[1])
		}
	}
}

// TestTrainedWindowGoldenAcrossWorkers is the acceptance pin: a trained
// checkpoint's windowed decode is bit-identical to the corresponding rows
// of the full decode AND to the in-memory embedding, at workers 1 and 4
// (the determinism contract extended through the indexed format).
func TestTrainedWindowGoldenAcrossWorkers(t *testing.T) {
	g := quickGraph(t)
	var first *EmbeddingWindow
	for _, workers := range []int{1, 4} {
		cfg := quickCfg()
		cfg.MaxEpochs = 5
		cfg.Workers = workers
		var ck *Checkpoint
		hooks := Hooks{CheckpointEvery: 0, Checkpoint: func(c *Checkpoint) { ck = c }}
		res, err := TrainContext(context.Background(), g, proximity.NewDegree(g), cfg, hooks)
		if err != nil {
			t.Fatal(err)
		}
		if ck == nil {
			t.Fatal("no final checkpoint delivered")
		}
		raw := encodeToBytes(t, ck)
		lo, hi := 13, 37
		win, err := DecodeCheckpointRows(bytes.NewReader(raw), int64(len(raw)), lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := res.Rows(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(win.Rows.Data, append([]float64{}, mem.Data...)) {
			t.Errorf("workers=%d: windowed artifact decode diverges from the in-memory embedding", workers)
		}
		full, err := decodeBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(win.Rows.Data, append([]float64{}, full.Win[lo*cfg.Dim:hi*cfg.Dim]...)) {
			t.Errorf("workers=%d: windowed decode diverges from the full decode", workers)
		}
		if first == nil {
			first = win
		} else if !reflect.DeepEqual(first.Rows.Data, win.Rows.Data) {
			t.Error("window differs between workers 1 and 4")
		}
	}
}
