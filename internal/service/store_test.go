package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
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

// TestWriteFileAtomicFailureKeepsPrevious: a writer that fails midway
// leaves the previous file byte-for-byte intact and no ".tmp" behind.
func TestWriteFileAtomicFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.result.gob")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("previous"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
		t.Fatalf("previous file now %q (err %v), want it intact", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: stat err = %v", err)
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

// TestArtifactGoldenBytes pins the bytes writeArtifact produces, so the
// "byte-identical artifacts" contract is checked directly rather than
// through a round trip that a symmetric writer/reader change would pass.
func TestArtifactGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := writeArtifact(&buf, storeKey(3), fakeResult(200, 16)); err != nil {
		t.Fatal(err)
	}
	const want = "46d693ab07fa81e047244c21a003e5d274e4540490bfb1ada9c50aa3bd858ab6"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("artifact sha256 = %s, want %s", got, want)
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
