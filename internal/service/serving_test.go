package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
)

// ringSpec returns a small deterministic inline-graph spec (20-node ring
// plus chords, 30 edges) with a fast config.
func ringSpec() spec.JobSpec {
	edges := make([][2]int, 0, 30)
	for i := 0; i < 20; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 20})
	}
	for i := 0; i < 10; i++ {
		edges = append(edges, [2]int{i, i + 5})
	}
	return spec.JobSpec{
		Graph:     spec.GraphSource{Inline: &spec.InlineSource{Nodes: 20, Edges: edges}},
		Proximity: "degree",
		Config:    spec.ConfigSpec{Dim: 8, BatchSize: 16, MaxEpochs: 5, Seed: 1},
	}
}

// ringGraph builds the same graph as ringSpec through the Go API.
func ringGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(20)
	for i := 0; i < 20; i++ {
		if err := b.AddEdge(i, (i+1)%20); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := b.AddEdge(i, i+5); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// occupyAllSlots drains the service's free slots so subsequent jobs queue
// deterministically; the returned function puts them back.
func occupyAllSlots(s *Service) (restore func()) {
	s.mu.Lock()
	held := s.free
	s.free = 0
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.free += held
		s.dispatchLocked()
		s.mu.Unlock()
	}
}

// pendingLen reports how many claims are queued.
func pendingLen(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

func waitPending(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pendingLen(s) != n {
		if time.Now().After(deadline) {
			t.Fatalf("pending queue never reached %d (at %d)", n, pendingLen(s))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPriorityAdmissionOrder drives the admission heap directly: with no
// free slots, claims enqueued low-priority-first must be granted
// highest-priority-first, FIFO within a priority.
func TestPriorityAdmissionOrder(t *testing.T) {
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	restore := occupyAllSlots(s)
	defer restore()

	grants := make(chan string, 4)
	enqueue := func(name string, priority int) {
		j := &Job{}
		j.priority.Store(int32(priority))
		go func() {
			if err := s.acquire(context.Background(), j, 1); err != nil {
				t.Errorf("%s: acquire: %v", name, err)
				return
			}
			grants <- name
			s.release(1)
		}()
	}
	// Arrival order: low, high, then two equal mid-priority claims.
	enqueue("low", 0)
	waitPending(t, s, 1)
	enqueue("high", 10)
	waitPending(t, s, 2)
	enqueue("mid-first", 5)
	waitPending(t, s, 3)
	enqueue("mid-second", 5)
	waitPending(t, s, 4)

	restore() // hand the slot back; grants now chain via release
	want := []string{"high", "mid-first", "mid-second", "low"}
	for _, expect := range want {
		select {
		case got := <-grants:
			if got != expect {
				t.Fatalf("grant order: got %q, want %q", got, expect)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q", expect)
		}
	}
}

// TestCancelWhileQueuedBehindPriority: canceling a claim parked behind
// others must remove it from the heap without disturbing the rest.
func TestCancelWhileQueuedBehindPriority(t *testing.T) {
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	restore := occupyAllSlots(s)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- s.acquire(ctx, &Job{}, 1) }()
	waitPending(t, s, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled claim returned %v", err)
	}
	if n := pendingLen(s); n != 0 {
		t.Fatalf("canceled claim left %d heap entries", n)
	}
	restore()
	// The slot survives: a fresh claim is granted immediately.
	if err := s.acquire(context.Background(), &Job{}, 1); err != nil {
		t.Fatal(err)
	}
	s.release(1)
}

// TestTenantQuota: a tenant at its in-flight cap gets ErrQuotaExceeded —
// for distinct jobs AND for resubmissions of its own job, because the cap
// is enforced before resolution (a 429 must cost the server nothing) and
// dedup cannot be established without resolving. Other tenants are
// unaffected, a below-cap tenant adopts an existing job quota-free, and
// finishing a job frees the quota.
func TestTenantQuota(t *testing.T) {
	s := New(Options{MaxWorkers: 1, TenantInflight: 1})
	restore := occupyAllSlots(s) // park everything in the queue
	defer func() {
		restore()
		s.Close()
	}()

	sp1 := ringSpec()
	sp1.Tenant = "acme"
	j1, err := s.SubmitSpec(sp1)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Cancel()

	sp2 := ringSpec()
	sp2.Tenant = "acme"
	sp2.Config.Seed = 2 // distinct job
	if _, err := s.SubmitSpec(sp2); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second acme job: err = %v, want ErrQuotaExceeded", err)
	}
	// At the cap even an identical resubmission is refused: admission
	// control runs before resolution, and without resolution there is no
	// key to deduplicate on. Poll by job ID instead of resubmitting.
	if _, err := s.SubmitSpec(sp1); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("at-cap resubmission: err = %v, want ErrQuotaExceeded", err)
	}

	// A below-cap tenant adopts acme's queued job quota-free…
	spAdopt := ringSpec()
	spAdopt.Tenant = "globex"
	adopted, err := s.SubmitSpec(spAdopt)
	if err != nil {
		t.Fatalf("cross-tenant adoption failed: %v", err)
	}
	if adopted != j1 {
		t.Fatal("identical spec did not deduplicate across tenants")
	}
	// …and the adoption did not consume globex's quota: its own distinct
	// job is still admitted.
	sp3 := ringSpec()
	sp3.Tenant = "globex"
	sp3.Config.Seed = 3
	j3, err := s.SubmitSpec(sp3)
	if err != nil {
		t.Fatalf("adoption charged the adopter's quota: %v", err)
	}
	defer j3.Cancel()

	// Finishing (here: canceling) j1 frees acme's slot.
	j1.Cancel()
	if _, err := j1.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = s.SubmitSpec(sp2); err == nil {
			break
		}
		if !errors.Is(err, ErrQuotaExceeded) || time.Now().After(deadline) {
			t.Fatalf("quota never freed after job finished: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitSpecCrossAPIDedup is the heart of the single-currency design:
// a JobSpec and the equivalent in-memory Submit land on the SAME Job, and
// its result matches a direct core.Train of the same arguments bit for
// bit.
func TestSubmitSpecCrossAPIDedup(t *testing.T) {
	s := New(Options{MaxWorkers: 2})
	defer s.Close()

	sp := ringSpec()
	jSpec, err := s.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}

	g := ringGraph(t)
	cfg := core.DefaultConfig()
	cfg.Dim = 8
	cfg.BatchSize = 16
	cfg.MaxEpochs = 5
	cfg.Seed = 1
	jGo, err := s.Submit(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if jSpec != jGo {
		t.Fatal("spec and Go submissions of one logical job produced distinct jobs")
	}
	if jSpec.ID() != JobID(jSpec.Key()) {
		t.Fatal("job ID is not the stable function of its key")
	}
	if got, ok := s.JobByID(jSpec.ID()); !ok || got != jSpec {
		t.Fatal("JobByID does not resolve the submitted job")
	}

	res, err := jSpec.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hash64(res.Embedding().Data) != hash64(want.Embedding().Data) {
		t.Fatal("spec-submitted result diverges from direct Train")
	}
}

// TestSubmitSpecTrainsLazily: a dataset-sourced job trains on the lazy
// measure, as a Go submission does, so it never builds the full proximity
// matrix. Degree's would be dense, |V|²·16 bytes (46 MiB on this graph);
// the job's whole allocation between submit and done stays far below it.
func TestSubmitSpecTrainsLazily(t *testing.T) {
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	sp := spec.JobSpec{
		Graph:     spec.GraphSource{Dataset: &spec.DatasetSource{Name: "power", Scale: 0.35, Seed: 1}},
		Proximity: "degree",
		Config:    spec.ConfigSpec{Dim: 8, BatchSize: 16, MaxEpochs: 2, Seed: 1},
	}
	g, err := s.ResolveGraph(sp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	sparse := uint64(g.NumNodes()) * uint64(g.NumNodes()) * 16
	if sparse < 40<<20 {
		t.Fatalf("%d nodes: the dense matrix (%d bytes) is too small to tell apart", g.NumNodes(), sparse)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, err := s.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const allocBound = 8 << 20
	if delta := after.TotalAlloc - before.TotalAlloc; delta > allocBound {
		t.Errorf("dataset degree job allocated %d bytes, want <= %d (the dense matrix is %d)",
			delta, allocBound, sparse)
	}
}

// TestSubmitSpecResolutionErrors maps bad specs onto ErrInvalidSpec.
func TestSubmitSpecResolutionErrors(t *testing.T) {
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	bad := []spec.JobSpec{
		{Proximity: "degree", Config: spec.ConfigSpec{Seed: 1}}, // no graph source
		{Graph: spec.GraphSource{Dataset: &spec.DatasetSource{Name: "no-such", Seed: 1}},
			Proximity: "degree", Config: spec.ConfigSpec{Seed: 1}},
		{Graph: spec.GraphSource{Dataset: &spec.DatasetSource{Name: "power", Seed: 1}},
			Proximity: "no-such-measure", Config: spec.ConfigSpec{Seed: 1}},
		{Graph: spec.GraphSource{Inline: &spec.InlineSource{Nodes: 2, Edges: [][2]int{{0, 0}}}},
			Proximity: "degree", Config: spec.ConfigSpec{Seed: 1}}, // self-loop
		{Graph: spec.GraphSource{File: &spec.FileSource{Path: "g.txt"}},
			Proximity: "degree", Config: spec.ConfigSpec{Seed: 1}}, // no GraphDir
	}
	for i, sp := range bad {
		if _, err := s.SubmitSpec(sp); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("bad spec %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
}

// TestSubmitSpecFileSource resolves a server-side edge list confined to
// GraphDir.
func TestSubmitSpecFileSource(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tiny.txt"),
		[]byte("0 1\n1 2\n2 3\n3 0\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxWorkers: 1, GraphDir: dir})
	defer s.Close()
	sp := spec.JobSpec{
		Graph:     spec.GraphSource{File: &spec.FileSource{Path: "tiny.txt"}},
		Proximity: "degree",
		Config:    spec.ConfigSpec{Dim: 4, BatchSize: 4, MaxEpochs: 2, Seed: 1},
	}
	j, err := s.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 2 {
		t.Fatalf("file-sourced job ran %d epochs, want 2", res.Epochs)
	}
}

// TestArtifactStoreRoundTrip pins the on-disk format at the Store level.
func TestArtifactStoreRoundTrip(t *testing.T) {
	g := testGraph()
	cfg := testCfg()
	res, err := core.Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := experiments.ResultKey{Graph: g.Fingerprint(), Proximity: "deepwalk", Config: cfg.Hash()}
	if _, ok := st.Load(key); ok {
		t.Fatal("empty store claimed a hit")
	}
	if err := st.Save(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Load(key)
	if !ok {
		t.Fatal("saved artifact not loadable")
	}
	if !reflect.DeepEqual(got.Model.Win.(*mathx.Matrix).Data, res.Model.Win.(*mathx.Matrix).Data) ||
		!reflect.DeepEqual(got.Model.Wout.(*mathx.Matrix).Data, res.Model.Wout.(*mathx.Matrix).Data) {
		t.Fatal("artifact round trip changed the matrices")
	}
	if got.Epochs != res.Epochs || got.Stopped != res.Stopped ||
		got.EpsilonSpent != res.EpsilonSpent || got.DeltaSpent != res.DeltaSpent ||
		!reflect.DeepEqual(got.LossHistory, res.LossHistory) {
		t.Fatal("artifact round trip changed the scalar results")
	}
	// A different key must never be served this artifact.
	other := key
	other.Config++
	if _, ok := st.Load(other); ok {
		t.Fatal("store served an artifact under the wrong key")
	}
}

// TestArtifactStoreSurvivesRestart: a fresh Service (new Memo, same
// ArtifactDir) serves the identical submission from disk — observable as
// an equal result with no training progress ever reported.
func TestArtifactStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sp := ringSpec()

	s1 := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	j1, err := s1.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if _, trained := j1.Progress(); !trained {
		t.Fatal("first run reported no training — the restart test would be vacuous")
	}

	s2 := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	defer s2.Close()
	j2, err := s2.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, trained := j2.Progress(); trained {
		t.Fatal("restarted service retrained instead of loading the artifact")
	}
	if hash64(res1.Embedding().Data) != hash64(res2.Embedding().Data) {
		t.Fatal("artifact-served embedding differs from the trained one")
	}
	if res2.Epochs != res1.Epochs || res2.Stopped != res1.Stopped {
		t.Fatalf("artifact-served metadata drifted: %+v vs %+v", res2.Epochs, res1.Epochs)
	}
	// Both jobs report the one digest of Win: the trained job the one it
	// wrote into the header, the adopted job the one Load verified.
	want := mathx.DigestMat(res1.Model.Win)
	for name, j := range map[string]*Job{"trained": j1, "adopted": j2} {
		if got, ok := j.EmbeddingHash(); !ok || got != want {
			t.Errorf("%s job EmbeddingHash = %016x (ok=%v), want %016x", name, got, ok, want)
		}
	}
}

// ringReference trains ringSpec on a store-backed reference service and
// returns its job's key and the result its artifact holds: the job keeps
// Win only, the artifact Win and Wout.
func ringReference(t *testing.T) (experiments.ResultKey, *core.Result) {
	t.Helper()
	ref := New(Options{MaxWorkers: 1, ArtifactDir: t.TempDir()})
	defer ref.Close()
	jr, err := ref.SubmitSpec(ringSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jr.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, ok := ref.store.Load(jr.Key())
	if !ok {
		t.Fatal("the reference job's artifact does not load")
	}
	return jr.Key(), res
}

// TestNonV3ArtifactIsRetrained pins the store's one-format rule: a file
// at a job's artifact path that the current writer would not produce is a
// Load miss, so the job trains exactly once, replaces the file with v3
// bytes, and serves row windows bit-equal to the in-memory rows.
func TestNonV3ArtifactIsRetrained(t *testing.T) {
	sp := ringSpec()
	key, want := ringReference(t)

	// A complete artifact in the single-gob-stream layout earlier builds
	// wrote (header, then the matrices as gob blocks), under the job's own
	// key and holding the right values — still not v3, so still a miss.
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	stale := artifactHeader{Version: 1, GraphFingerprint: key.Graph, Method: keyMethod(key),
		Proximity: key.Proximity, ConfigHash: key.Config, Nodes: 20, Dim: 8}
	enc := gob.NewEncoder(f)
	for _, v := range []any{&stale, mathx.CopyOut(want.Model.Win), mathx.CopyOut(want.Model.Wout)} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	s := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	defer s.Close()
	j, err := s.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.Trainings(); n != 1 {
		t.Fatalf("trainings = %d, want exactly 1 (the stale file must be a miss)", n)
	}
	raw, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	var hdr artifactHeader
	if _, err := core.OpenIndexed(bytes.NewReader(raw), int64(len(raw)), &hdr); err != nil {
		t.Fatalf("artifact on disk after retraining is not v3: %v", err)
	}

	const lo, hi = 3, 17
	mem, err := want.Rows(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (*core.EmbeddingWindow, error){
		"ResultRows":   func() (*core.EmbeddingWindow, error) { return s.ResultRows(j.ID(), lo, hi) },
		"LoadRowsByID": func() (*core.EmbeddingWindow, error) { return st.LoadRowsByID(j.ID(), lo, hi) },
	} {
		w, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(w.Rows.Data, append([]float64{}, mem.Data...)) {
			t.Errorf("%s window diverges from the in-memory rows", name)
		}
	}
}

// TestWrongEmbeddingHashIsRetrained: the header's EmbeddingHash is the one
// checksum an artifact carries, so a file whose Win disagrees with it —
// here the job's own key, shape and values under EmbeddingHash^1 — is a
// Load miss. The job retrains once, rewrites the artifact, and its hash
// agrees with the metadata served for the same ID.
func TestWrongEmbeddingHashIsRetrained(t *testing.T) {
	sp := ringSpec()
	key, want := ringReference(t)

	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hdr := newArtifactHeader(key, want, mathx.DigestMat(want.Model.Win))
	hdr.EmbeddingHash ^= 1
	var buf bytes.Buffer
	if err := core.WriteIndexed(&buf, &hdr, want.Model.Win, want.Model.Wout); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(key), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Load(key); ok {
		t.Fatal("Load accepted an artifact whose Win disagrees with its EmbeddingHash")
	}

	s := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	defer s.Close()
	j, err := s.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := s.Trainings(); n != 1 {
		t.Fatalf("trainings = %d, want exactly 1 (the mismatched file must be a miss)", n)
	}
	wantHash := mathx.DigestMat(want.Model.Win)
	got, ok := j.EmbeddingHash()
	meta, metaOK := s.ArtifactMeta(j.ID())
	if !ok || got != wantHash || !metaOK || meta.EmbeddingHash != wantHash {
		t.Fatalf("job hash %016x (ok=%v), meta %+v (ok=%v), want %016x", got, ok, meta, metaOK, wantHash)
	}
	if _, ok := st.Load(key); !ok {
		t.Fatal("the retrained artifact does not load")
	}
}

// TestResultRowsServesTableJobFromMemory: a finished job still in the
// table is served from its in-memory result, which is authoritative, not
// from its artifact. After the job completes, the sign of Win[0][0] is
// flipped in place inside the artifact's first Win chunk: gob writes a
// float64 as its little-endian bytes with leading zero bytes dropped, so
// flipping the top bit of the last one negates the value and leaves the
// frame decodable and the header and row index valid — only the whole-Win
// digest Load checks would notice. The store's own by-ID window must show
// the flipped value (the tamper took) while ResultRows returns the
// in-memory one.
func TestResultRowsServesTableJobFromMemory(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	defer s.Close()
	j, err := s.SubmitSpec(ringSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := st.path(j.Key())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr artifactHeader
	ix, err := core.OpenIndexed(bytes.NewReader(raw), int64(len(raw)), &hdr)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Model.Win.Row(0)[0]
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], math.Float64bits(want))
	needle := bytes.TrimLeft(le[:], "\x00")
	at := bytes.Index(raw[ix.Win[0]:], needle)
	if want == 0 || at < 0 {
		t.Fatalf("Win[0][0] = %v not found in the first Win chunk", want)
	}
	raw[int(ix.Win[0])+at+len(needle)-1] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	disk, err := st.LoadRowsByID(j.ID(), 0, 1)
	if err != nil {
		t.Fatalf("tampered artifact no longer decodes: %v", err)
	}
	if got := disk.Rows.At(0, 0); got != -want {
		t.Fatalf("artifact Win[0][0] = %v after the flip, want %v", got, -want)
	}
	w, err := s.ResultRows(j.ID(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Rows.At(0, 0); got != want {
		t.Fatalf("ResultRows Win[0][0] = %v, want the in-memory %v (served from disk?)", got, want)
	}
}

// TestMemoryCapRejectionIsFree: a dataset spec, or a sweep with a dataset
// cell, whose training state exceeds MaxTrainingBytes is refused from the
// dataset's node count alone, before the graph is generated or memoized.
func TestMemoryCapRejectionIsFree(t *testing.T) {
	memo := experiments.NewMemo()
	s := New(Options{MaxWorkers: 1, MaxTrainingBytes: 1 << 20, Memo: memo})
	defer s.Close()
	sp := spec.JobSpec{
		Graph:     spec.GraphSource{Dataset: &spec.DatasetSource{Name: "chameleon", Scale: 1, Seed: 1}},
		Proximity: "deepwalk",
		Config:    spec.ConfigSpec{Dim: 128, MaxEpochs: 2, Seed: 1},
	}
	if _, err := s.SubmitSpec(sp); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}
	if _, err := s.SubmitSweep(datasetSweep(sp.Graph)); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("sweep: err = %v, want ErrInvalidSpec", err)
	}
	if n := memo.GraphCacheLen(); n != 0 {
		t.Fatalf("a rejected submission grew the graph cache to %d entries", n)
	}
}

// datasetSweep is a valid one-cell sweep over src at r = 128.
func datasetSweep(src spec.GraphSource) *spec.SweepSpec {
	return &spec.SweepSpec{
		Graphs:    []spec.GraphSource{src},
		Methods:   []string{"sepriv"},
		Epsilons:  []float64{1},
		Seeds:     []uint64{1},
		Proximity: "degree",
		Config:    spec.ConfigSpec{Dim: 128, MaxEpochs: 1},
	}
}

// TestQuotaRejectionIsFree pins the admission-before-resolution order: a
// tenant at its cap must be refused BEFORE the spec resolves, so rejected
// floods cannot grow the memo's graph cache.
func TestQuotaRejectionIsFree(t *testing.T) {
	memo := experiments.NewMemo()
	s := New(Options{MaxWorkers: 1, TenantInflight: 1, Memo: memo})
	defer s.Close()
	restore := occupyAllSlots(s)
	defer restore()

	sp1 := ringSpec()
	sp1.Tenant = "acme"
	j1, err := s.SubmitSpec(sp1)
	if err != nil {
		t.Fatal(err)
	}
	defer j1.Cancel()

	// A flood of DISTINCT dataset specs from the capped tenant: every one
	// must 429 without simulating its dataset.
	for seed := uint64(0); seed < 5; seed++ {
		sp := spec.JobSpec{
			Graph:     spec.GraphSource{Dataset: &spec.DatasetSource{Name: "power", Scale: 0.05, Seed: seed}},
			Proximity: "degree",
			Config:    spec.ConfigSpec{Dim: 4, BatchSize: 4, MaxEpochs: 2, Seed: 1},
		}
		sp.Tenant = "acme"
		if _, err := s.SubmitSpec(sp); !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("seed %d: err = %v, want ErrQuotaExceeded", seed, err)
		}
	}
	if n := memo.GraphCacheLen(); n != 0 {
		t.Fatalf("rejected submissions grew the graph cache to %d entries", n)
	}
}

// TestSubmitAfterCloseSentinel: the closed error classifies via ErrClosed
// on every submission path, and a refused sweep generates no dataset.
func TestSubmitAfterCloseSentinel(t *testing.T) {
	memo := experiments.NewMemo()
	s := New(Options{MaxWorkers: 1, Memo: memo})
	s.Close()
	if _, err := s.SubmitSpec(ringSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitSpec after Close: %v, want ErrClosed", err)
	}
	power := spec.GraphSource{Dataset: &spec.DatasetSource{Name: "power", Scale: 0.1, Seed: 1}}
	if _, err := s.SubmitSweep(datasetSweep(power)); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitSweep after Close: %v, want ErrClosed", err)
	}
	if n := memo.GraphCacheLen(); n != 0 {
		t.Fatalf("a sweep refused after Close grew the graph cache to %d entries", n)
	}
	g := ringGraph(t)
	if _, err := s.Submit(g, proximity.NewDegree(g), testCfg()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestAdoptionBoostsPriority: a high-priority adopter re-heaps the queued
// job to its priority, so it overtakes mid-priority claims enqueued ahead
// of it.
func TestAdoptionBoostsPriority(t *testing.T) {
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	restore := occupyAllSlots(s)

	low := ringSpec() // priority 0
	jLow, err := s.SubmitSpec(low)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job's claim is actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for pendingLen(s) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job claim never queued")
		}
		time.Sleep(time.Millisecond)
	}

	boosted := ringSpec()
	boosted.Priority = 10
	jSame, err := s.SubmitSpec(boosted)
	if err != nil {
		t.Fatal(err)
	}
	if jSame != jLow {
		t.Fatal("identical spec did not deduplicate")
	}
	if jLow.Priority() != 10 {
		t.Fatalf("adopted job priority = %d, want boosted 10", jLow.Priority())
	}
	s.mu.Lock()
	w := jLow.waiter
	ok := w != nil && w.priority == 10 && s.pending[0] == w
	s.mu.Unlock()
	if !ok {
		t.Fatal("boost did not re-heap the queued claim")
	}
	// A lower adopter must never DOWNGRADE.
	lower := ringSpec()
	lower.Priority = 3
	if _, err := s.SubmitSpec(lower); err != nil {
		t.Fatal(err)
	}
	if jLow.Priority() != 10 {
		t.Fatalf("adoption lowered priority to %d", jLow.Priority())
	}
	jLow.Cancel()
	restore()
}

// TestMethodSeparation is the collision bugfix pin: an identical (graph,
// proximity, config) submitted under two different methods must never
// share a job, a job ID, or an artifact file — before the method joined
// the dedup key, both submissions collapsed onto whichever trainer ran
// first. Identical method submissions still dedup across the spec and Go
// APIs, including alias/case spellings.
func TestMethodSeparation(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{MaxWorkers: 2, ArtifactDir: dir})
	defer s.Close()

	sp := ringSpec()
	jDefault, err := s.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	spGap := ringSpec()
	spGap.Method = "gap"
	jGap, err := s.SubmitSpec(spGap)
	if err != nil {
		t.Fatal(err)
	}
	if jGap == jDefault || jGap.ID() == jDefault.ID() {
		t.Fatalf("distinct methods shared a job (IDs %s, %s)", jDefault.ID(), jGap.ID())
	}
	if jDefault.Method() != "sepriv" || jGap.Method() != "gap" {
		t.Fatalf("job methods = %q, %q", jDefault.Method(), jGap.Method())
	}
	// The default method's ID stays the legacy (pre-method) function of the
	// key, so PR 5 artifacts and clients keep resolving.
	legacy := jDefault.Key()
	legacy.Method = ""
	if JobID(legacy) != jDefault.ID() {
		t.Fatal("default-method job ID drifted from the legacy key function")
	}

	// Cross-API and alias dedup: the Go API with a case-folded spelling
	// adopts the spec-submitted gap job.
	g := ringGraph(t)
	cfg := core.DefaultConfig()
	cfg.Dim = 8
	cfg.BatchSize = 16
	cfg.MaxEpochs = 5
	cfg.Seed = 1
	jGo, err := s.SubmitMethod("GAP", g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if jGo != jGap {
		t.Fatal("Go-API gap submission did not dedup onto the spec-submitted job")
	}

	resD, err := jDefault.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resG, err := jGap.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hash64(resD.Embedding().Data) == hash64(resG.Embedding().Data) {
		t.Fatal("two different training methods produced the identical embedding")
	}

	// Each method persisted its own artifact under a distinct file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("artifact dir holds %v, want two distinct files", names)
	}

	// A repeat gap submission on a FRESH service is served from the gap
	// artifact, bit-identically — the determinism the dedup layer relies on.
	s2 := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	defer s2.Close()
	jAgain, err := s2.SubmitSpec(spGap)
	if err != nil {
		t.Fatal(err)
	}
	resAgain, err := jAgain.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, trained := jAgain.Progress(); trained {
		t.Fatal("repeat gap submission retrained instead of loading its artifact")
	}
	if hash64(resAgain.Embedding().Data) != hash64(resG.Embedding().Data) {
		t.Fatal("artifact-served gap embedding differs from the trained one")
	}
}

// TestSubmitSpecMethodValidation (satellite 3): malformed method specs are
// refused at submission with ErrInvalidSpec — an unknown name, a baseline
// with a non-positive privacy budget, δ outside (0,1), or private=false.
func TestSubmitSpecMethodValidation(t *testing.T) {
	s := New(Options{MaxWorkers: 1})
	defer s.Close()

	mk := func(mutate func(*spec.JobSpec)) spec.JobSpec {
		sp := ringSpec()
		mutate(&sp)
		return sp
	}
	f := false
	bad := []spec.JobSpec{
		mk(func(sp *spec.JobSpec) { sp.Method = "no-such-method" }),
		mk(func(sp *spec.JobSpec) { sp.Method = "gap"; sp.Config.Epsilon = -2 }),
		mk(func(sp *spec.JobSpec) { sp.Method = "dpgvae"; sp.Config.Delta = 1.5 }),
		mk(func(sp *spec.JobSpec) { sp.Method = "dpggan"; sp.Config.Private = &f }),
	}
	for i, sp := range bad {
		if _, err := s.SubmitSpec(sp); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("bad method spec %d: err = %v, want ErrInvalidSpec", i, err)
		}
	}
	// The same knobs are legal for the default method (which has its own
	// validation and a non-private counterpart).
	okSpec := mk(func(sp *spec.JobSpec) { sp.Config.Private = &f })
	if _, err := s.SubmitSpec(okSpec); err != nil {
		t.Errorf("non-private default spec rejected: %v", err)
	}
	// And SubmitMethod applies the identical gate on the Go path.
	g := ringGraph(t)
	cfg := core.DefaultConfig()
	cfg.Private = false
	if _, err := s.SubmitMethod("gap", g, proximity.NewDegree(g), cfg); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("SubmitMethod non-private gap: err = %v, want ErrInvalidSpec", err)
	}
}
