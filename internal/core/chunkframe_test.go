package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"testing"

	"seprivgemb/internal/xrand"
)

// frameValues returns n values that open with the encodings gob treats
// specially — both zeros, subnormals, both infinities, quiet and
// signalling NaN payloads, the extremes — and go on with random floats of
// every width, so each prefix of it mixes short and long encodings.
func frameValues(n int) []float64 {
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Inf(1), math.Inf(-1),
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000abc), // negative NaN with a payload
		math.Float64frombits(0x7fffffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, 2, 1.5, 1e-300,
	}
	rng := xrand.New(3)
	vals := make([]float64, n)
	for i := range vals {
		switch {
		case i < len(specials):
			vals[i] = specials[i]
		case i%97 == 0:
			vals[i] = specials[i%len(specials)]
		case i%5 == 0:
			vals[i] = float64(rng.Intn(1 << 20)) // short mantissa: few bytes
		default:
			vals[i] = rng.Normal()
		}
	}
	return vals
}

// gobPayload is what a fresh gob.Encoder writes for v.
func gobPayload(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendGobInt appends v in gob's signed-integer encoding.
func appendGobInt(b []byte, v int64) []byte {
	u := uint64(v) << 1
	if v < 0 {
		u = uint64(^v)<<1 | 1
	}
	return appendGobUint(b, u)
}

// floatsPayload is the payload a fresh gob.Encoder writes for vals in a
// process that numbered []float64 as tid, having first met it as a struct
// field (named) or as a top-level value (unnamed).
func floatsPayload(tid int64, named bool, vals []float64) []byte {
	def := append(appendGobInt(nil, -tid), 0x02, 0x01)
	if named {
		def = append(append(def, 0x01, 0x09), "[]float64"...)
		def = append(def, 0x01)
	} else {
		def = append(def, 0x02)
	}
	def = append(appendGobInt(def, tid), 0x00, 0x01, 0x08, 0x00, 0x00)
	val := append(appendGobInt(nil, tid), 0)
	val = appendGobUint(val, uint64(len(vals)))
	for _, v := range vals {
		val = appendGobUint(val, gobFloat(v))
	}
	p := append(appendGobUint(nil, uint64(len(def))), def...)
	p = appendGobUint(p, uint64(len(val)))
	return append(p, val...)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFloatsFrameMatchesGob is the writer's contract: for every chunk
// length 1…chunkFloats, writeFloatsFrame emits an 8-byte length and then
// exactly the bytes a fresh gob.Encoder writes for the same values in the
// same process.
func TestFloatsFrameMatchesGob(t *testing.T) {
	vals := frameValues(chunkFloats)
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	for n := 1; n <= chunkFloats; n++ {
		buf.Reset()
		off := fw.off
		start, err := fw.writeFloatsFrame(vals[:n])
		if err != nil || start != off {
			t.Fatalf("n=%d: writeFloatsFrame started at %d (want %d), err %v", n, start, off, err)
		}
		frame := buf.Bytes()
		want := gobPayload(t, vals[:n])
		if binary.BigEndian.Uint64(frame) != uint64(len(want)) || !bytes.Equal(frame[8:], want) {
			t.Fatalf("n=%d: frame payload differs from gob's %d bytes", n, len(want))
		}
		if fw.off != off+int64(len(frame)) {
			t.Fatalf("n=%d: writer offset advanced %d, wrote %d", n, fw.off-off, len(frame))
		}
	}
}

// TestChunkFrameAnyTypeID: a stream carries whatever id its writer's
// process gave []float64, named or not, so chunk frames under foreign ids
// still load — through DecodeCheckpoint and a row window.
func TestChunkFrameAnyTypeID(t *testing.T) {
	ck := chunkCheckpoint(130, 64)
	cut := func(m []float64) [][]float64 { return [][]float64{m[:chunkFloats], m[chunkFloats:]} }
	for _, tc := range []struct {
		tid   int64
		named bool
	}{{64, false}, {70, false}, {70, true}, {127, true}, {128, false}, {1000, true}, {math.MaxInt32, false}} {
		frames := func(m []float64) [][]byte {
			var ps [][]byte
			for _, c := range cut(m) {
				ps = append(ps, floatsPayload(tc.tid, tc.named, c))
			}
			return ps
		}
		hdr := ck.header()
		raw := forgeFrames(t, &hdr, ck.Nodes, ck.Dim, frames(ck.Win), frames(ck.Wout))
		got, err := decodeBytes(raw)
		if err != nil || !sameBits(got.Win, ck.Win) || !sameBits(got.Wout, ck.Wout) {
			t.Fatalf("id %d named=%v: DecodeCheckpoint: err %v or values differ", tc.tid, tc.named, err)
		}
		win, err := DecodeCheckpointRows(bytes.NewReader(raw), int64(len(raw)), 100, 130)
		if err != nil || !sameBits(win.Rows.Data, ck.Win[100*64:]) {
			t.Fatalf("id %d named=%v: row window: err %v or values differ", tc.tid, tc.named, err)
		}
	}
}

// FuzzChunkFrame differentially fuzzes the chunk writer against gob: the
// input, read as float64 bit patterns, is written by writeFloatsFrame,
// whose bytes must equal a fresh gob.Encoder's for the same values, and
// the frame must read back through readFrameAt bit for bit. The seeds
// hold the special values of frameValues.
func FuzzChunkFrame(f *testing.F) {
	vals := frameValues(300)
	for _, n := range []int{1, 2, 19, 300} {
		seed := make([]byte, 0, 8*n)
		for _, v := range vals[:n] {
			seed = binary.BigEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		n := min(len(p)/8, chunkFloats)
		if n == 0 {
			return
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
		}
		var buf bytes.Buffer
		fw := &frameWriter{w: &buf}
		if _, err := fw.writeFloatsFrame(vals); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes()[8:], gobPayload(t, vals)) {
			t.Fatalf("%d values: frame payload differs from gob's", n)
		}
		var got []float64
		var scratch []byte
		if _, err := readFrameAt(bytes.NewReader(buf.Bytes()), 0, int64(buf.Len()), &got, &scratch); err != nil || !sameBits(got, vals) {
			t.Fatalf("%d values: read back: err %v or values differ", n, err)
		}
	})
}
