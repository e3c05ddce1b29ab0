package core

import (
	"bytes"
	"encoding/binary"
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
		got, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatalf("%dx%d: decode: %v", tc.nodes, tc.dim, err)
		}
		if !reflect.DeepEqual(ck, got) {
			t.Errorf("%dx%d: chunked round trip changed the checkpoint", tc.nodes, tc.dim)
		}
	}
}

func TestCheckpointDecodeRejectsBadStreams(t *testing.T) {
	ck := chunkCheckpoint(4, 4)

	// Wrong version.
	bad := *ck
	bad.Version = checkpointVersion + 1
	var buf bytes.Buffer
	if err := bad.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(&buf); err == nil {
		t.Error("future-version checkpoint accepted")
	}

	// Truncated matrix stream.
	buf.Reset()
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := DecodeCheckpoint(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated checkpoint accepted")
	}

	// v3 streams carrying the given header and raw chunk frames, built
	// past Encode's own shape checks to reach the decoder's.
	stream := func(hdr checkpointHeader, chunks ...[]float64) *bytes.Buffer {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		if err := fw.WriteStreamMagic(); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.WriteFrame(&hdr); err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if _, err := fw.WriteFrame(c); err != nil {
				t.Fatal(err)
			}
		}
		return &buf
	}

	// A chunk that overruns the declared shape.
	over := stream(checkpointHeader{Version: checkpointVersion, Nodes: 2, Dim: 2},
		make([]float64, 100)) // claims 4, sends 100
	if _, err := DecodeCheckpoint(over); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Errorf("overlong chunk: err = %v, want an overrun error", err)
	}

	// An impossible shape must be rejected before allocation.
	neg := stream(checkpointHeader{Version: checkpointVersion, Nodes: -1, Dim: 8})
	if _, err := DecodeCheckpoint(neg); err == nil || !strings.Contains(err.Error(), "impossible shape") {
		t.Errorf("negative shape: err = %v, want an impossible-shape error", err)
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

// TestDecodeCheckpointHostileClaims: a header's shape and a frame's length
// prefix are claims the decoder must not allocate for up front. A
// few-hundred-byte stream whose header claims 2^17×2^17 (a 128 GiB pair
// of matrices), and one whose first chunk frame claims 16 MiB, are errors
// that allocate under 1 MiB each — not an out-of-memory crash.
func TestDecodeCheckpointHostileClaims(t *testing.T) {
	hdr := chunkCheckpoint(1, 1).header()
	hdr.Nodes, hdr.Dim = 1<<17, 1<<17
	var huge bytes.Buffer
	fw := NewFrameWriter(&huge)
	if err := fw.WriteStreamMagic(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteFrame(&hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteFrame(make([]float64, 8)); err != nil {
		t.Fatal(err)
	}

	var long bytes.Buffer
	if err := chunkCheckpoint(4, 4).Encode(&long); err != nil {
		t.Fatal(err)
	}
	// Cut the stream after its header frame and claim a maximal chunk
	// frame there, followed by a few bytes of it.
	raw := long.Bytes()
	headerEnd := 8 + 8 + int(binary.BigEndian.Uint64(raw[8:16]))
	claim := binary.BigEndian.AppendUint64(append([]byte{}, raw[:headerEnd]...), maxFrameBytes)
	claim = append(claim, raw[headerEnd+8:headerEnd+40]...)

	for name, stream := range map[string][]byte{"shape": huge.Bytes(), "frame length": claim} {
		var err error
		n := allocated(func() { _, err = DecodeCheckpoint(bytes.NewReader(stream)) })
		if err == nil {
			t.Errorf("%s claim: %d-byte stream decoded", name, len(stream))
		}
		if n >= 1<<20 {
			t.Errorf("%s claim: decoding a %d-byte stream allocated %d bytes, want < 1 MiB", name, len(stream), n)
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
		n := allocated(func() { ck, err = DecodeCheckpoint(bytes.NewReader(data)) })
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
