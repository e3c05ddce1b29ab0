package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/skipgram"
	"seprivgemb/internal/xrand"
)

// fakeResult builds a deterministic completed result of the given shape.
func fakeResult(nodes, dim int) *core.Result {
	rng := xrand.New(7)
	win := mathx.NewMatrix(nodes, dim)
	wout := mathx.NewMatrix(nodes, dim)
	for i := range win.Data {
		win.Data[i] = rng.Float64() - 0.5
		wout.Data[i] = rng.Normal()
	}
	return &core.Result{
		Model:        &skipgram.Model{Dim: dim, Win: win, Wout: wout},
		Epochs:       9,
		Stopped:      core.StopCompleted,
		EpsilonSpent: 1.25,
		DeltaSpent:   1e-6,
		LossHistory:  []float64{3, 2, 1},
	}
}

// writeArtifact streams the artifact Save writes for res under key, with
// Win's digest given.
func writeArtifact(w io.Writer, key experiments.ResultKey, res *core.Result, digest uint64) error {
	hdr := newArtifactHeader(key, res, digest)
	return core.WriteIndexed(w, &hdr, res.Model.Win, res.Model.Wout)
}

func storeKey(n uint64) experiments.ResultKey {
	return experiments.ResultKey{Graph: 0x1111 + n, Proximity: "degree", Config: 0x2222 + n}
}

// TestStoreRoundTripAndRows pins the v3 artifact: a full Load reproduces
// the result bit-exactly, and LoadRows of every probed window equals the
// corresponding rows of the full matrix, under the recorded full hash.
func TestStoreRoundTripAndRows(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := storeKey(1)
	res := fakeResult(1000, 17)
	if err := st.Save(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Load(key)
	if !ok {
		t.Fatal("Load missed a just-saved artifact")
	}
	if !reflect.DeepEqual(res.Model.Win.(*mathx.Matrix).Data, got.Model.Win.(*mathx.Matrix).Data) ||
		!reflect.DeepEqual(res.Model.Wout.(*mathx.Matrix).Data, got.Model.Wout.(*mathx.Matrix).Data) ||
		got.Epochs != res.Epochs || got.EpsilonSpent != res.EpsilonSpent {
		t.Fatal("round trip changed the result")
	}

	wantHash := mathx.DigestFloat64s(res.Model.Win.(*mathx.Matrix).Data)
	for _, w := range [][2]int{{0, 1000}, {0, 1}, {999, 1000}, {100, 400}, {500, 500}} {
		lo, hi := w[0], w[1]
		win, err := st.LoadRows(key, lo, hi)
		if err != nil {
			t.Fatalf("LoadRows(%d, %d): %v", lo, hi, err)
		}
		if win.TotalRows != 1000 || win.Dim != 17 || win.FullHash != wantHash {
			t.Fatalf("LoadRows(%d, %d) metadata %+v", lo, hi, win)
		}
		want := res.Model.Win.(*mathx.Matrix).Data[lo*17 : hi*17]
		if !reflect.DeepEqual(win.Rows.Data, append([]float64{}, want...)) {
			t.Errorf("LoadRows(%d, %d) diverges from the full matrix", lo, hi)
		}
	}

	// Windows a serving layer must refuse.
	for _, w := range [][2]int{{-1, 5}, {5, 3}, {0, 1001}} {
		if _, err := st.LoadRows(key, w[0], w[1]); err == nil {
			t.Errorf("LoadRows(%d, %d) accepted", w[0], w[1])
		}
	}
	// A key with no artifact is an error, not a zero window.
	if _, err := st.LoadRows(storeKey(99), 0, 1); err == nil {
		t.Error("LoadRows of an absent artifact accepted")
	}
}

// TestStoreRejectsCorruptArtifacts: a damaged index or truncated file is
// a loud error on the windowed path and a clean miss (retrain) on Load —
// never a wrong answer.
func TestStoreRejectsCorruptArtifacts(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := storeKey(3)
	if err := st.Save(key, fakeResult(200, 16)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, mutate func([]byte) []byte) {
		t.Helper()
		bad := mutate(append([]byte{}, raw...))
		if err := os.WriteFile(st.path(key), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Load(key); ok {
			t.Error("Load accepted a corrupt artifact")
		}
		if _, err := st.LoadRows(key, 0, 10); err == nil {
			t.Errorf("LoadRows on a corrupt artifact: err = %v, want a corruption error", err)
		}
	}
	t.Run("flipped trailer", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[len(b)-3] ^= 0xff; return b })
	})
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)-20] })
	})
}

// TestLoadHostileShapeIsMiss: an artifact whose header matches the key
// but claims a 2^17×2^17 shape in a few hundred bytes is a clean miss that
// allocates under 1 MiB — one corrupt file in a shared store must not
// crash every replica that loads it. The claim is made twice: by the
// header over a real one-chunk index, and by the row index itself behind
// a well-formed trailer.
func TestLoadHostileShapeIsMiss(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := storeKey(6)
	hdr := artifactHeader{Version: artifactVersion, GraphFingerprint: key.Graph, Method: keyMethod(key),
		Proximity: key.Proximity, ConfigHash: key.Config, Nodes: 1 << 17, Dim: 1 << 17}
	var real bytes.Buffer
	small := mathx.NewMatrix(1, 8)
	if err := core.WriteIndexed(&real, &hdr, small, small); err != nil {
		t.Fatal(err)
	}
	headerClaim := real.Bytes()
	var h artifactHeader
	ix, err := core.OpenIndexed(bytes.NewReader(headerClaim), int64(len(headerClaim)), &h)
	if err != nil {
		t.Fatal(err)
	}

	// The same header under an index claiming the shape, spelled out frame
	// by frame ([8-byte length][gob]) between the real stream's two magics.
	frame := func(v any) []byte {
		var p bytes.Buffer
		if err := gob.NewEncoder(&p).Encode(v); err != nil {
			t.Fatal(err)
		}
		return append(binary.BigEndian.AppendUint64(nil, uint64(p.Len())), p.Bytes()...)
	}
	indexClaim := append(headerClaim[:8:8], frame(&hdr)...)
	indexOff := len(indexClaim)
	indexClaim = append(indexClaim, frame(&core.RowIndex{ChunkFloats: ix.ChunkFloats, Rows: 1 << 17, Cols: 1 << 17})...)
	indexClaim = binary.BigEndian.AppendUint64(indexClaim, uint64(indexOff))
	indexClaim = append(indexClaim, headerClaim[len(headerClaim)-8:]...)

	for name, raw := range map[string][]byte{"header": headerClaim, "index": indexClaim} {
		if err := os.WriteFile(st.path(key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok := st.Load(key)
		runtime.ReadMemStats(&after)
		if ok {
			t.Errorf("%s claim: Load accepted an artifact claiming a 2^17×2^17 shape", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s claim: Load of a %d-byte artifact allocated %d bytes, want < 1 MiB", name, len(raw), n)
		}
	}
}

// artifactGoldenSHA256 pins the bytes writeArtifact produces for
// fakeResult(200, 16) under storeKey(3).
const artifactGoldenSHA256 = "b5abe88eebf7aa7f63c8f93b7e15c3bd0c7854532e3d38196a30997079cb58f2"

// goldenArtifactSHA256 returns the sha256 of that artifact.
func goldenArtifactSHA256(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	res := fakeResult(200, 16)
	if err := writeArtifact(&buf, storeKey(3), res, mathx.DigestMat(res.Model.Win)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestArtifactGoldenBytes pins the bytes writeArtifact produces, so the
// "byte-identical artifacts" contract is checked directly rather than
// through a round trip that a symmetric writer/reader change would pass.
func TestArtifactGoldenBytes(t *testing.T) {
	if got := goldenArtifactSHA256(t); got != artifactGoldenSHA256 {
		t.Errorf("artifact sha256 = %s, want %s", got, artifactGoldenSHA256)
	}
}

// TestArtifactBytesIgnoreGobHistory: gob numbers types process-wide on
// first use and every frame carries the numbers, so an artifact's bytes
// must not depend on what the process encoded before it. In a fresh
// process — where nothing but package init has touched gob, so the test
// does not depend on which tests ran before it — a checkpoint and a type
// gob has never seen, encoded first, leave the pin unchanged.
func TestArtifactBytesIgnoreGobHistory(t *testing.T) {
	const child = "SEPRIV_TEST_GOB_HISTORY"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestArtifactBytesIgnoreGobHistory$", "-test.count=1")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh process: %v\n%s", err, out)
		}
		return
	}
	ck := &core.Checkpoint{Version: 3, Nodes: 1, Dim: 2, Win: []float64{1, 2}, Wout: []float64{3, 4}}
	if err := ck.Encode(io.Discard); err != nil {
		t.Fatal(err)
	}
	type foreign struct {
		Weights []float64
		Names   map[string]int
	}
	if err := gob.NewEncoder(io.Discard).Encode(foreign{Names: map[string]int{"a": 1}}); err != nil {
		t.Fatal(err)
	}
	if got := goldenArtifactSHA256(t); got != artifactGoldenSHA256 {
		t.Errorf("artifact sha256 after other gob encodes = %s, want %s", got, artifactGoldenSHA256)
	}
}

// TestLoadRowsMemoryBound is the scale acceptance pin: serving a small
// row window of a million-row artifact must not allocate anything close
// to the full matrix. The full Win alone is 16 MiB here; the window read
// is held under 4 MiB of total allocations (window + one 64 KiB chunk +
// index + decoder scratch).
func TestLoadRowsMemoryBound(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const (
		nodes = 1 << 20 // a million rows
		dim   = 2
	)
	key := storeKey(4)
	// Build the big result without the per-value RNG cost of fakeResult.
	win := mathx.NewMatrix(nodes, dim)
	wout := mathx.NewMatrix(nodes, dim)
	for i := range win.Data {
		win.Data[i] = float64(i) * 0.5
		wout.Data[i] = float64(i) * 0.25
	}
	res := &core.Result{
		Model:   &skipgram.Model{Dim: dim, Win: win, Wout: wout},
		Epochs:  1,
		Stopped: core.StopCompleted,
	}
	if err := st.Save(key, res); err != nil {
		t.Fatal(err)
	}

	const lo, hi = 500_000, 500_064
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := st.LoadRows(key, lo, hi)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	want := win.Data[lo*dim : hi*dim]
	if !reflect.DeepEqual(w.Rows.Data, append([]float64{}, want...)) {
		t.Fatal("windowed decode of the million-row artifact diverges")
	}
	const allocBound = 4 << 20
	if delta := after.TotalAlloc - before.TotalAlloc; delta > allocBound {
		t.Errorf("LoadRows of a %d-row window allocated %d bytes, want <= %d (full matrix is %d)",
			hi-lo, delta, allocBound, len(win.Data)*8)
	}
}

// TestStorePathSanitization keeps operator-readable names safe.
func TestStorePathSanitization(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := experiments.ResultKey{Graph: 1, Proximity: "../evil/../../name", Config: 2}
	p := st.path(key)
	if filepath.Dir(p) != st.dir {
		t.Fatalf("sanitized path %q escapes the store directory", p)
	}
}

// FuzzArtifactByID feeds arbitrary bytes to the artifact read paths — a
// peer replica's artifact, or a forgotten job's, as hostile disk input:
// the bytes are stored under a real job ID's artifact name, then read
// through the metadata lookup, Service.ResultRows and the full Store.Load.
// Reading must never panic. A truncated artifact is always an error or a
// miss; the intact one reads back its rows and loads whole; whenever a
// mutated file does yield a window (a window is not checked against the
// header's EmbeddingHash, so a flipped value decodes as a valid window),
// the window agrees with the metadata record served for the same ID; and
// a full load allocates no more than FuzzDecodeCheckpoint allows.
func FuzzArtifactByID(f *testing.F) {
	key := storeKey(5)
	res := fakeResult(40, 5)
	var buf bytes.Buffer
	if err := writeArtifact(&buf, key, res, mathx.DigestMat(res.Model.Win)); err != nil {
		f.Fatal(err)
	}
	intact := buf.Bytes()
	f.Add(intact)
	for _, n := range []int{0, 7, 8, 64, len(intact) / 2, len(intact) - 17, len(intact) - 16, len(intact) - 1} {
		f.Add(intact[:n])
	}
	id := JobID(key)
	const lo, hi = 30, 40
	want := res.Model.Win.(*mathx.Matrix).RowRange(lo, hi)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := New(Options{MaxWorkers: 1, ArtifactDir: dir})
		defer s.Close()
		if err := os.WriteFile(s.store.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, metaOK := s.ArtifactMeta(id)
		win, err := s.ResultRows(id, lo, hi)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		full, loadOK := s.store.Load(key)
		runtime.ReadMemStats(&after)
		// FuzzDecodeCheckpoint's bound: a fixed allowance, encoding/gob's
		// 10 MiB claim cap, and a constant multiple of the input.
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+10<<20+256*len(data)); n > bound {
			t.Fatalf("loading %d bytes allocated %d, want <= %d", len(data), n, bound)
		}
		if loadOK && (!metaOK || mathx.DigestMat(full.Model.Win) != meta.EmbeddingHash) {
			t.Fatalf("loaded a result whose hash disagrees with the metadata (meta ok=%v)", metaOK)
		}
		switch {
		case bytes.Equal(data, intact):
			if !metaOK || err != nil || !loadOK {
				t.Fatalf("intact artifact: meta ok=%v, rows err=%v, load ok=%v", metaOK, err, loadOK)
			}
			if !reflect.DeepEqual(win.Rows.Data, want.Data) {
				t.Fatal("intact artifact: window diverges from the saved rows")
			}
			if !reflect.DeepEqual(full.Model.Win, res.Model.Win) {
				t.Fatal("intact artifact: loaded Win diverges from the saved one")
			}
		case bytes.HasPrefix(intact, data):
			if metaOK || err == nil || loadOK {
				t.Fatalf("%d-byte truncation: meta ok=%v, rows err=%v, load ok=%v", len(data), metaOK, err, loadOK)
			}
		case err == nil:
			if !metaOK {
				t.Fatal("rows served for an ID whose metadata lookup failed")
			}
			if win.Rows.Rows != hi-lo || win.Rows.Cols != meta.Dim || win.TotalRows != meta.Nodes ||
				win.Dim != meta.Dim || win.FullHash != meta.EmbeddingHash {
				t.Fatalf("window %dx%d of %dx%d (hash %016x) disagrees with meta %+v",
					win.Rows.Rows, win.Rows.Cols, win.TotalRows, win.Dim, win.FullHash, meta)
			}
		}
	})
}
