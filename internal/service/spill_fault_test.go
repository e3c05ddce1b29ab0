//go:build linux

package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

// TestSpillWriteFailureFailsJobNotService: when a running job's spill
// file stops accepting writes, the job fails with a *mathx.SpillError at
// its next pin barrier — no panic takes the process down — its spill
// files are closed at once, and the service goes on to train the next
// job.
//
// The fault is injected below the Go runtime: once the job has trained an
// epoch, each of its spill file descriptors is replaced (dup3) by a
// read-only descriptor of the same file, so the next eviction's pwrite
// fails with EBADF.
func TestSpillWriteFailureFailsJobNotService(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	s := New(Options{MaxWorkers: 1})
	defer s.Close()

	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	cfg := testCfg()
	cfg.Dim, cfg.K, cfg.BatchSize = 128, 2, 8
	cfg.MaxEpochs = 100000
	cfg.Private = false
	cfg.MemoryBudget = cfg.MinMemoryBudget(big.NumNodes())
	j, err := s.Submit(big, proximity.NewDegree(big), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := j.Progress(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := reopenSpillFiles(t, dir, os.O_RDONLY); n != 2 {
		t.Fatalf("found %d spill files of the running job, want Win's and Wout's", n)
	}

	_, err = j.Wait(context.Background())
	var se *mathx.SpillError
	if !errors.As(err, &se) || se.Op != "write" {
		t.Fatalf("job with a read-only spill file: err = %v, want a *mathx.SpillError on write", err)
	}
	if j.Status() != StatusFailed {
		t.Fatalf("status = %v, want failed", j.Status())
	}
	if n := reopenSpillFiles(t, dir, os.O_RDONLY); n != 0 {
		t.Errorf("failed job left %d spill files open", n)
	}

	g := testGraph()
	next, err := s.Submit(g, proximity.NewDegree(g), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(context.Background()); err != nil || next.Status() != StatusDone {
		t.Fatalf("job after the spill failure: status %v, err %v", next.Status(), err)
	}
}

// TestShrinkWriteFailureKeepsSlabs: when the write-back of Shrink fails,
// it returns the *mathx.SpillError and drops no slab, so no row that
// only the slabs still hold is lost to the failed flush.
func TestShrinkWriteFailureKeepsSlabs(t *testing.T) {
	dir := t.TempDir()
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	const cols = 1024 // 8 rows/chunk
	sm, err := mathx.NewSpillMatrix(64, cols, 4*mathx.SpillChunkBytes, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	rows := make([]float64, 32*cols)
	for i := range 32 {
		rows[i*cols] = float64(i)
	}
	sm.WriteRows(0, rows) // four dirty resident chunks
	resident, budget := sm.ResidentBytes(), sm.BudgetBytes()
	if n := reopenSpillFiles(t, dir, os.O_RDONLY); n != 1 {
		t.Fatalf("found %d spill files, want 1", n)
	}
	var se *mathx.SpillError
	if err := sm.Shrink(); !errors.As(err, &se) || se.Op != "write" {
		t.Fatalf("Shrink over a read-only spill file = %v, want a *mathx.SpillError on write", err)
	}
	if got := sm.ResidentBytes(); got != resident {
		t.Errorf("failed Shrink left %d resident bytes, want all %d", got, resident)
	}
	if got := sm.BudgetBytes(); got != budget {
		t.Errorf("failed Shrink lowered the ceiling to %d, want %d", got, budget)
	}
}

// TestShrinkWriteFailureFailsJobNotService: when the write-back that
// precedes the shrink of a finished spilled job fails, the job fails
// with the *mathx.SpillError before its digest is taken (Win is read no
// further) or its artifact written, no panic takes the process down, the
// job leaves no spill file open, and the service goes on to train the
// next job.
//
// The fault is injected after training, before the write-back: both
// spill files are made read-only while the last epoch's rows are dirty.
func TestShrinkWriteFailureFailsJobNotService(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	s := New(Options{MaxWorkers: 1, ArtifactDir: t.TempDir()})
	defer s.Close()
	inject := holdAfterTrain(t, s, dir, os.O_RDONLY)

	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	cfg := testCfg()
	cfg.Dim, cfg.K, cfg.BatchSize = 128, 2, 8
	cfg.MaxEpochs = 3
	cfg.Private = false
	cfg.MemoryBudget = cfg.MinMemoryBudget(big.NumNodes())
	j, err := s.Submit(big, proximity.NewDegree(big), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, n := inject()
	if n != 2 {
		t.Fatalf("found %d spill files of the finished job, want Win's and Wout's", n)
	}
	win := res.Model.Win.(*mathx.SpillMatrix)
	reads := win.Stats().Reads // the write-back reads nothing
	_, err = j.Wait(context.Background())
	var se *mathx.SpillError
	if !errors.As(err, &se) || se.Op != "write" {
		t.Fatalf("job whose write-back fails: err = %v, want a *mathx.SpillError on write", err)
	}
	if got := win.Stats().Reads; got != reads {
		t.Errorf("Win was read %d more times after its write-back failed, want no digest", got-reads)
	}
	if j.Status() != StatusFailed {
		t.Fatalf("status = %v, want failed", j.Status())
	}
	if n := reopenSpillFiles(t, dir, os.O_RDONLY); n != 0 {
		t.Errorf("failed job left %d spill files open", n)
	}
	if _, _, ok := s.store.load(j.key); ok {
		t.Error("failed job committed an artifact")
	}

	s.afterTrain = nil
	g := testGraph()
	next, err := s.Submit(g, proximity.NewDegree(g), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(context.Background()); err != nil || next.Status() != StatusDone {
		t.Fatalf("job after the write-back failure: status %v, err %v", next.Status(), err)
	}
}

// TestShrinkWriteFailureKeepsCanceledCheckpoint: a canceled spilled job
// whose write-back fails ends canceled with the *mathx.SpillError and
// its spill files closed, and still hands back the resumable Checkpoint
// of its partial result, without a Model; no row or hash is served.
func TestShrinkWriteFailureKeepsCanceledCheckpoint(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	s := New(Options{MaxWorkers: 1})
	defer s.Close()
	inject := holdAfterTrain(t, s, dir, os.O_RDONLY)

	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	cfg := testCfg()
	cfg.Dim, cfg.K, cfg.BatchSize = 128, 2, 8
	cfg.MaxEpochs = 100000
	cfg.Private = false
	cfg.MemoryBudget = cfg.MinMemoryBudget(big.NumNodes())
	j, err := s.Submit(big, proximity.NewDegree(big), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := j.Progress(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	if _, n := inject(); n != 2 {
		t.Fatalf("found %d spill files of the canceled job, want Win's and Wout's", n)
	}
	res, err := j.Wait(context.Background())
	var se *mathx.SpillError
	if !errors.As(err, &se) || se.Op != "write" {
		t.Fatalf("canceled job whose write-back fails: err = %v, want a *mathx.SpillError on write", err)
	}
	if j.Status() != StatusCanceled {
		t.Fatalf("status = %v, want canceled", j.Status())
	}
	if res == nil || res.Model != nil || res.Stopped != core.StopCanceled {
		t.Fatalf("result = %+v, want the canceled partial result without a Model", res)
	}
	if cp := res.Checkpoint; cp == nil || cp.Epoch != res.Epochs || len(cp.Win) != big.NumNodes()*cfg.Dim {
		t.Fatalf("checkpoint of the canceled job = %+v, want one at epoch %d", cp, res.Epochs)
	}
	if n := reopenSpillFiles(t, dir, os.O_RDONLY); n != 0 {
		t.Errorf("canceled job left %d spill files open", n)
	}
	if _, err := s.ResultRows(j.ID(), 0, 1); err == nil {
		t.Error("rows served from a canceled job whose write-back failed")
	}
	if _, ok := j.EmbeddingHash(); ok {
		t.Error("canceled job whose write-back failed reports an embedding hash")
	}

	s.afterTrain = nil
	g := testGraph()
	next, err := s.Submit(g, proximity.NewDegree(g), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(context.Background()); err != nil || next.Status() != StatusDone {
		t.Fatalf("job after the write-back failure: status %v, err %v", next.Status(), err)
	}
}

// TestUnreadableSpilledResultReportsNoHash: a canceled spilled job takes
// Win's digest when it finishes, after the write-back, and stores its
// record then.
//
//   - If the spill files stop serving reads before that digest, it reads
//     zeros and the sticky *mathx.SpillError: the job ends canceled with
//     that error and its spill files closed, keeps its resumable
//     Checkpoint, and reports no hash, no record and no rows, rather than
//     a digest of zeros.
//   - If they stop serving reads after the job finished, the job keeps the
//     record it finished with, hash included, and its row reads return the
//     SpillError.
func TestUnreadableSpilledResultReportsNoHash(t *testing.T) {
	big := graph.BarabasiAlbert(2048, 2, xrand.New(9))
	cfg := testCfg()
	cfg.Dim, cfg.K, cfg.BatchSize = 128, 2, 8
	cfg.MaxEpochs = 100000
	cfg.Private = false
	cfg.MemoryBudget = cfg.MinMemoryBudget(big.NumNodes())
	// start returns a no-store service whose spill files go to their own
	// directory, and that directory.
	start := func(t *testing.T) (*Service, string) {
		dir := t.TempDir()
		t.Setenv("TMPDIR", dir)
		if real, err := filepath.EvalSymlinks(dir); err == nil {
			dir = real
		}
		s := New(Options{MaxWorkers: 1})
		t.Cleanup(s.Close)
		return s, dir
	}
	// cancel submits the spilled job and cancels it after its first epoch.
	cancel := func(t *testing.T, s *Service) *Job {
		j, err := s.Submit(big, proximity.NewDegree(big), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := j.Progress(); ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
		j.Cancel()
		return j
	}
	var se *mathx.SpillError

	t.Run("before the digest", func(t *testing.T) {
		s, dir := start(t)
		inject := holdAfterTrain(t, s, dir, os.O_WRONLY)
		j := cancel(t, s)
		// Win's file and Wout's: after training Wout is only written back
		// and closed, so the read that fails is Win's digest.
		if _, n := inject(); n != 2 {
			t.Fatalf("found %d spill files of the canceled job, want Win's and Wout's", n)
		}
		res, err := j.Wait(context.Background())
		if !errors.As(err, &se) || se.Op != "read" {
			t.Fatalf("canceled job whose digest fails: err = %v, want a *mathx.SpillError on read", err)
		}
		if j.Status() != StatusCanceled {
			t.Fatalf("status = %v, want canceled", j.Status())
		}
		if res == nil || res.Model != nil || res.Stopped != core.StopCanceled {
			t.Fatalf("result = %+v, want the canceled partial result without a Model", res)
		}
		if cp := res.Checkpoint; cp == nil || cp.Epoch != res.Epochs || len(cp.Win) != big.NumNodes()*cfg.Dim {
			t.Fatalf("checkpoint of the canceled job = %+v, want one at epoch %d", cp, res.Epochs)
		}
		if n := reopenSpillFiles(t, dir, os.O_RDONLY); n != 0 {
			t.Errorf("canceled job left %d spill files open", n)
		}
		if h, ok := j.EmbeddingHash(); ok {
			t.Errorf("canceled job whose digest failed reports hash %016x", h)
		}
		if _, err := j.ResultMeta(); !errors.As(err, &se) || se.Op != "read" {
			t.Errorf("ResultMeta = %v, want a *mathx.SpillError on read", err)
		}
		if _, err := s.ResultRows(j.ID(), 0, 1); err == nil {
			t.Error("rows served from a canceled job whose digest failed")
		}
	})

	t.Run("after the finish", func(t *testing.T) {
		s, dir := start(t)
		j := cancel(t, s)
		res, err := j.Wait(context.Background())
		if err != nil || res.Stopped != core.StopCanceled || res.Model == nil {
			t.Fatalf("canceled job: result %+v, err %v; want a canceled result with its Model", res, err)
		}
		want := mathx.DigestMat(res.Model.Win)
		if n := reopenSpillFiles(t, dir, os.O_WRONLY); n != 1 {
			t.Fatalf("found %d spill files of the canceled job, want Win's", n)
		}
		if h, ok := j.EmbeddingHash(); !ok || h != want {
			t.Errorf("EmbeddingHash = %016x, %v; want the digest %016x taken at finish", h, ok, want)
		}
		if meta, err := j.ResultMeta(); err != nil || meta.EmbeddingHash != want {
			t.Errorf("ResultMeta = %+v, %v; want the record the job finished with", meta, err)
		}
		if _, err := s.ResultRows(j.ID(), 0, 1); !errors.As(err, &se) || se.Op != "read" {
			t.Errorf("ResultRows = %v, want a *mathx.SpillError on read", err)
		}
	})
}

// holdAfterTrain holds s's next trained result in afterTrain, before its
// write-back, until the returned function has reopened every spill file
// under dir with flag (reopenSpillFiles); that function returns the
// result and how many files it changed.
func holdAfterTrain(t *testing.T, s *Service, dir string, flag int) func() (*core.Result, int) {
	trained, injected := make(chan *core.Result), make(chan struct{})
	s.afterTrain = func(res *core.Result) {
		trained <- res
		<-injected
	}
	return func() (*core.Result, int) {
		res := <-trained
		defer close(injected) // also when the helper skips the test
		return res, reopenSpillFiles(t, dir, flag)
	}
}

// reopenSpillFiles replaces every open descriptor of an unlinked spill
// file under dir with a descriptor of the same file opened with flag and
// returns how many it replaced: os.O_RDONLY makes the next pwrite fail,
// os.O_WRONLY the next pread.
func reopenSpillFiles(t *testing.T, dir string, flag int) int {
	t.Helper()
	links, ok := spillFDs(dir)
	if !ok {
		t.Skip("no /proc/self/fd")
	}
	for _, link := range links {
		f, err := os.OpenFile(link, flag, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := strconv.Atoi(filepath.Base(link))
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(f.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return len(links)
}
