package core

import (
	"bytes"
	"reflect"
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
