package service

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

// fakeClock drives the job table's TTL logic deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newClockedService returns a service whose retention clock is clk.
func newClockedService(t *testing.T, opts Options, clk *fakeClock) *Service {
	t.Helper()
	s := New(opts)
	s.now = clk.now
	t.Cleanup(func() {
		s.CancelAll()
		s.Close()
	})
	return s
}

// submitSeed submits the test job at seed and waits for it.
func submitSeed(t *testing.T, s *Service, seed uint64) (*Job, *core.Result) {
	t.Helper()
	g := testGraph()
	cfg := testCfg()
	cfg.Seed = seed
	j, err := s.Submit(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return j, res
}

// TestRetentionForgetsOldestFinishedJob: under MaxResults 1 the job table
// keeps only the newest finished job. The oldest leaves JobByID, a handle
// still held keeps its result, and resubmitting it loads the persisted
// artifact instead of training again.
func TestRetentionForgetsOldestFinishedJob(t *testing.T) {
	s := newClockedService(t, Options{MaxWorkers: 1, ArtifactDir: t.TempDir(), MemoLimits: Limits{MaxResults: 1}},
		&fakeClock{t: time.Unix(1000, 0)})
	oldest, oldRes := submitSeed(t, s, 1)
	submitSeed(t, s, 2)
	_, newRes := submitSeed(t, s, 3)

	if _, ok := s.JobByID(oldest.ID()); ok {
		t.Fatal("oldest finished job still in the table under MaxResults 1")
	}
	if res, err := oldest.Wait(context.Background()); err != nil || res != oldRes {
		t.Fatalf("held handle lost its result: (%v, %v)", res, err)
	}
	if hash64(newRes.Embedding().Data) == hash64(oldRes.Embedding().Data) {
		t.Fatal("distinct seeds trained identical embeddings")
	}
	before := s.Trainings()
	again, res := submitSeed(t, s, 1)
	if again == oldest {
		t.Fatal("resubmission returned the forgotten handle")
	}
	if n := s.Trainings(); n != before {
		t.Fatalf("resubmitting a forgotten job retrained: %d trainings, want %d", n, before)
	}
	if hash64(res.Embedding().Data) != hash64(oldRes.Embedding().Data) {
		t.Fatal("artifact-served resubmission diverges from the original result")
	}
}

func TestJobTTLExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newClockedService(t, Options{MaxWorkers: 1, MemoLimits: Limits{ResultTTL: time.Minute}}, clk)
	first, _ := submitSeed(t, s, 1)
	clk.advance(30 * time.Second)
	if again, _ := submitSeed(t, s, 1); again != first || s.Trainings() != 1 {
		t.Fatalf("fresh job not adopted: trainings=%d", s.Trainings())
	}
	// The 30s adoption refreshed the job; only now does a >TTL gap expire it.
	clk.advance(61 * time.Second)
	if _, ok := s.JobByID(first.ID()); ok {
		t.Fatal("expired job still found by ID")
	}
	if again, _ := submitSeed(t, s, 1); again == first || s.Trainings() != 2 {
		t.Fatalf("expired job was adopted: trainings=%d", s.Trainings())
	}
}

func TestJobLRUEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newClockedService(t, Options{MaxWorkers: 1, MemoLimits: Limits{MaxResults: 2}}, clk)
	a, _ := submitSeed(t, s, 1)
	clk.advance(time.Second)
	b, _ := submitSeed(t, s, 2)
	clk.advance(time.Second)
	submitSeed(t, s, 1) // adopt A: B is now least recent
	clk.advance(time.Second)
	submitSeed(t, s, 3) // exceeds MaxResults → forgets B

	if again, _ := submitSeed(t, s, 1); again != a {
		t.Error("recently adopted job was evicted")
	}
	if _, ok := s.JobByID(b.ID()); ok {
		t.Error("least-recently-used job survived the cap")
	}
	if s.Trainings() != 3 {
		t.Errorf("trainings = %d, want 3", s.Trainings())
	}
}

// TestInFlightJobNeverEvicted: a job that finishes while another is still
// training may push the table over MaxResults, but only finished jobs are
// candidates — the in-flight one stays adoptable.
func TestInFlightJobNeverEvicted(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newClockedService(t, Options{MaxWorkers: 2, MemoLimits: Limits{MaxResults: 1}}, clk)
	g := testGraph()
	long := testCfg()
	long.MaxEpochs = 10000
	long.Private = false
	x, err := s.Submit(g, proximity.NewDeepWalk(g), long)
	if err != nil {
		t.Fatal(err)
	}
	y1, _ := submitSeed(t, s, 1)
	clk.advance(time.Second)
	submitSeed(t, s, 2) // forgets y1, never the in-flight x
	if _, ok := s.JobByID(y1.ID()); ok {
		t.Error("older finished job survived the cap")
	}
	if got, ok := s.JobByID(x.ID()); !ok || got != x {
		t.Fatal("in-flight job was evicted")
	}
	if again, err := s.Submit(g, proximity.NewDeepWalk(g), long); err != nil || again != x {
		t.Fatalf("in-flight job not adoptable: (%v, %v)", again, err)
	}
	x.Cancel()
	x.Wait(context.Background())
}

// TestFailedJobsAreNotAdopted: neither a failed job nor a canceled partial
// is handed to an identical resubmission — each resubmission is a fresh job
// that trains again.
func TestFailedJobsAreNotAdopted(t *testing.T) {
	s := newClockedService(t, Options{MaxWorkers: 1}, &fakeClock{t: time.Unix(1000, 0)})
	// Submit rejects any config the trainer would, so a job fails only
	// on a resource error at training time: here the spill file of a
	// budgeted run cannot be created.
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	bad := testCfg()
	bad.Dim, bad.K, bad.BatchSize = 128, 2, 8
	bad.MemoryBudget = bad.MinMemoryBudget(big.NumNodes())
	failed, err := s.Submit(big, proximity.NewDegree(big), bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failed.Wait(context.Background()); err == nil || failed.Status() != StatusFailed ||
		!strings.Contains(err.Error(), "spill file") {
		t.Fatalf("unwritable spill dir: status %v, err %v; want failed on the spill file", failed.Status(), err)
	}
	again, err := s.Submit(big, proximity.NewDegree(big), bad)
	if err != nil {
		t.Fatal(err)
	}
	if again == failed {
		t.Fatal("a failed job was adopted by its resubmission")
	}
	if _, err := again.Wait(context.Background()); err == nil {
		t.Fatal("resubmission with an unwritable spill dir succeeded")
	}

	g := testGraph()

	long := testCfg()
	long.MaxEpochs = 10000
	long.Private = false
	canceled, err := s.Submit(g, proximity.NewDeepWalk(g), long)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := canceled.Progress(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	canceled.Cancel()
	if res, err := canceled.Wait(context.Background()); err != nil || res.Stopped != core.StopCanceled {
		t.Fatalf("canceled job: (%+v, %v)", res, err)
	}
	before := s.Trainings()
	fresh, err := s.Submit(g, proximity.NewDeepWalk(g), long)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == canceled {
		t.Fatal("a canceled partial was adopted by its resubmission")
	}
	for {
		if _, ok := fresh.Progress(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fresh.Cancel()
	fresh.Wait(context.Background())
	if s.Trainings() != before+1 {
		t.Fatalf("resubmission after cancel: %d trainings, want %d", s.Trainings(), before+1)
	}
}

// TestSlowJobSurvivesTTL: a job that itself outlasts the TTL is stamped at
// completion — finishing IS a use — so it is not expired on arrival.
func TestSlowJobSurvivesTTL(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newClockedService(t, Options{MaxWorkers: 1, MemoLimits: Limits{ResultTTL: time.Minute}}, clk)
	g := testGraph()
	long := testCfg()
	long.MaxEpochs = 10000
	long.Private = false
	j, err := s.Submit(g, proximity.NewDeepWalk(g), long)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := j.Progress(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	clk.advance(5 * time.Minute) // the run takes 5×TTL
	j.Cancel()
	j.Wait(context.Background())
	if _, ok := s.JobByID(j.ID()); !ok {
		t.Fatal("a job slower than the TTL expired at completion")
	}
}

// TestKeptSpilledResultsHoldTwoChunks: a store-backed service keeps each
// finished spilled job, and a canceled one's partial result, as a shrunk
// Win with no resident slab and without Wout; reading it — its hash, row
// windows, digest, materialized embedding and an artifact write of it —
// loads no slab, and the rows it serves still hash to a dense retrain of
// the same spec.
func TestKeptSpilledResultsHoldTwoChunks(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	s := New(Options{MaxWorkers: 1, ArtifactDir: t.TempDir()})
	defer s.Close()
	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	prox := proximity.NewDegree(big)
	spilled := func(seed uint64, epochs int) core.Config {
		cfg := testCfg()
		cfg.Dim, cfg.K, cfg.BatchSize = 128, 2, 8
		cfg.MaxEpochs, cfg.Seed = epochs, seed
		cfg.MemoryBudget = cfg.MinMemoryBudget(big.NumNodes())
		return cfg
	}
	var kept []*Job
	checkKept := func(after string) {
		t.Helper()
		for _, j := range kept {
			res, err := j.Result()
			if err != nil {
				t.Fatalf("kept job %s: %v", j.ID(), err)
			}
			sm, ok := res.Model.Win.(*mathx.SpillMatrix)
			if !ok {
				t.Fatalf("job %s trained Win on the dense tier", j.ID())
			}
			if got := sm.ResidentBytes(); got != 0 {
				t.Errorf("after %s: job %s keeps %d resident bytes of Win, want 0", after, j.ID(), got)
			}
			if res.Model.Wout != nil {
				t.Errorf("after %s: job %s keeps Wout", after, j.ID())
			}
		}
	}
	for k, cfg := range []core.Config{spilled(1, 3), spilled(2, 3), spilled(3, 100000), spilled(4, 3)} {
		j, err := s.Submit(big, prox, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k == 2 {
			for {
				if _, ok := j.Progress(); ok {
					break
				}
				time.Sleep(time.Millisecond)
			}
			j.Cancel()
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		if canceled := res.Stopped == core.StopCanceled; canceled != (k == 2) {
			t.Fatalf("job %d stopped %v", k, res.Stopped)
		}
		kept = append(kept, j)
		checkKept("job " + j.ID())
		if _, ok := j.EmbeddingHash(); !ok {
			t.Fatalf("job %d reports no hash", k)
		}
		checkKept("hashing job " + j.ID())
		if k == 2 {
			continue
		}
		if got, want := mathx.DigestMat(res.Model.Win), mathx.DigestFloat64s(res.Embedding().Data); got != want {
			t.Fatalf("job %d: DigestMat %016x, digest of Embedding %016x", k, got, want)
		}
		if err := core.WriteIndexed(io.Discard, &struct{ V int }{1}, res.Model.Win, res.Model.Win); err != nil {
			t.Fatal(err)
		}
		checkKept("digesting, materializing and writing job " + j.ID())

		dense := cfg
		dense.MemoryBudget = 0
		want, err := core.Train(big, prox, dense)
		if err != nil {
			t.Fatal(err)
		}
		h := mathx.NewFNV64()
		for lo := 0; lo < big.NumNodes(); lo += 300 {
			w, err := s.ResultRows(j.ID(), lo, min(lo+300, big.NumNodes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range w.Rows.Data {
				h.Word(math.Float64bits(x))
			}
		}
		if got, want := h.Sum(), mathx.DigestMat(want.Model.Win); got != want {
			t.Errorf("job %d: served rows hash to %016x, dense retrain to %016x", k, got, want)
		}
		checkKept("reading job " + j.ID())
	}
}

// TestFinishedJobsKeepOnlyWin: every job the service keeps holds the
// embedding it publishes, Win, and not Wout, however it got its result:
// trained with or without a store, adopted from the store by a restarted
// service, joined by a deduplicated resubmission, trained on the spill
// tier, or trained by a baseline. Each serves the row windows and hash of
// an in-process dense training of the same spec, and the artifact still
// stores Wout: it is byte-identical to that training's. A spilled job
// keeps Win's spill file only, with no slab resident after serving its
// rows, and a canceled job keeps Wout in its resumable Checkpoint.
func TestFinishedJobsKeepOnlyWin(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if real, err := filepath.EvalSymlinks(tmp); err == nil {
		tmp = real
	}
	ctx := context.Background()
	g := testGraph()
	prox := proximity.NewDegree(g)
	cfg := testCfg()
	want, err := core.Train(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keepsOnlyWin := func(name string, s *Service, j *Job, want *core.Result) {
		t.Helper()
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("%s job: %v", name, err)
		}
		if res.Model.Wout != nil {
			t.Errorf("%s job keeps Wout", name)
		}
		for lo, n := 0, want.Model.Win.NumRows(); lo < n; lo += 300 {
			hi := min(lo+300, n)
			w, err := s.ResultRows(j.ID(), lo, hi)
			if err != nil {
				t.Fatalf("%s job rows [%d, %d): %v", name, lo, hi, err)
			}
			rows, err := want.Rows(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(w.Rows.Data, rows.Data) {
				t.Errorf("%s job rows [%d, %d) differ from the dense training's", name, lo, hi)
			}
		}
		if got, ok := j.EmbeddingHash(); !ok || got != mathx.DigestMat(want.Model.Win) {
			t.Errorf("%s job EmbeddingHash = %016x (ok=%v), want the dense training's %016x",
				name, got, ok, mathx.DigestMat(want.Model.Win))
		}
	}

	s0 := New(Options{MaxWorkers: 1})
	defer s0.Close()
	j0, err := s0.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keepsOnlyWin("no-store", s0, j0, want)

	// The artifact is checked before the job's outcome: it must be written
	// before Wout is dropped, and carry Wout's frames.
	dir := t.TempDir()
	s1 := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	defer s1.Close()
	j1, err := s1.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	var buf bytes.Buffer
	if err := writeArtifact(&buf, j1.Key(), want, mathx.DigestMat(want.Model.Win)); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(s1.store.path(j1.Key())); err != nil || !bytes.Equal(raw, buf.Bytes()) {
		t.Errorf("store-backed job's artifact (read err %v) is not the dense training's, Wout frames included", err)
	}
	keepsOnlyWin("store-backed", s1, j1, want)
	kept, _ := j1.Result()
	if err := s1.store.Save(j1.Key(), kept); err == nil {
		t.Error("Save of a kept result without Wout succeeded")
	}
	jd, err := s1.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keepsOnlyWin("deduplicated", s1, jd, want)
	if jd.ID() != j1.ID() || s1.Trainings() != 1 {
		t.Fatalf("resubmission: job %s after %s, %d trainings, want a dedup onto the first", jd.ID(), j1.ID(), s1.Trainings())
	}

	s2 := New(Options{MaxWorkers: 1, ArtifactDir: dir})
	defer s2.Close()
	ja, err := s2.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keepsOnlyWin("adopted", s2, ja, want)
	if s2.Trainings() != 0 {
		t.Fatal("the restarted service retrained instead of adopting the artifact")
	}

	gap, err := methods.Get("gap")
	if err != nil {
		t.Fatal(err)
	}
	wantGap, err := gap.Train(ctx, g, prox, cfg, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	jg, err := s0.SubmitMethod("gap", g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keepsOnlyWin("gap", s0, jg, wantGap)

	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	bigProx := proximity.NewDegree(big)
	spilled := testCfg()
	spilled.Dim, spilled.K, spilled.BatchSize, spilled.MaxEpochs = 128, 2, 8, 3
	spilled.MemoryBudget = spilled.MinMemoryBudget(big.NumNodes())
	dense := spilled
	dense.MemoryBudget = 0
	wantBig, err := core.Train(big, bigProx, dense)
	if err != nil {
		t.Fatal(err)
	}
	js, err := s0.Submit(big, bigProx, spilled)
	if err != nil {
		t.Fatal(err)
	}
	keepsOnlyWin("spilled", s0, js, wantBig)
	res, _ := js.Result()
	win, ok := res.Model.Win.(*mathx.SpillMatrix)
	if !ok {
		t.Fatal("the spilled job trained Win on the dense tier")
	}
	if got := win.ResidentBytes(); got != 0 {
		t.Errorf("the spilled job keeps %d resident bytes of Win after serving its rows, want 0", got)
	}
	if fds, ok := spillFDs(tmp); !ok {
		t.Log("no /proc/self/fd: the spill files left open are not counted")
	} else if len(fds) != 1 {
		t.Errorf("the spilled job left %d spill files open, want Win's alone", len(fds))
	}

	long := testCfg()
	long.MaxEpochs, long.Seed, long.Private = 100000, 2, false
	jc, err := s0.Submit(g, prox, long)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := jc.Progress(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	jc.Cancel()
	res, err = jc.Wait(ctx)
	if err != nil || res.Stopped != core.StopCanceled {
		t.Fatalf("canceled job: result %+v, err %v", res, err)
	}
	if res.Model.Wout != nil {
		t.Error("canceled job keeps Wout in its Model")
	}
	if ck := res.Checkpoint; ck == nil || len(ck.Wout) != g.NumNodes()*long.Dim {
		t.Errorf("canceled job's checkpoint %+v lost Wout, want %d values", ck, g.NumNodes()*long.Dim)
	}
}

// spillFDs returns the /proc/self/fd links of this process's open
// descriptors of unlinked spill files under dir; ok is false where
// /proc/self/fd cannot be read.
func spillFDs(dir string) (links []string, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, false
	}
	for _, e := range ents {
		link := filepath.Join("/proc/self/fd", e.Name())
		if target, err := os.Readlink(link); err == nil && strings.HasPrefix(target, filepath.Join(dir, "sepriv-spill-")) {
			links = append(links, link)
		}
	}
	return links, true
}
