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
	if n := makeSpillFilesReadOnly(t, dir); n != 2 {
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
	if n := makeSpillFilesReadOnly(t, dir); n != 0 {
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
	for i := 0; i < 32; i++ { // four dirty resident chunks
		sm.Row(i)[0] = float64(i)
	}
	resident, budget := sm.ResidentBytes(), sm.BudgetBytes()
	if n := makeSpillFilesReadOnly(t, dir); n != 1 {
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
	inject := holdAfterTrain(t, s, dir)

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
	if n := makeSpillFilesReadOnly(t, dir); n != 0 {
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
	inject := holdAfterTrain(t, s, dir)

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
	if n := makeSpillFilesReadOnly(t, dir); n != 0 {
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

// holdAfterTrain holds s's next trained result in afterTrain, before its
// write-back, until the returned function has made every spill file
// under dir read-only; that function returns the result and how many
// files it changed.
func holdAfterTrain(t *testing.T, s *Service, dir string) func() (*core.Result, int) {
	trained, injected := make(chan *core.Result), make(chan struct{})
	s.afterTrain = func(res *core.Result) {
		trained <- res
		<-injected
	}
	return func() (*core.Result, int) {
		res := <-trained
		defer close(injected) // also when the helper skips the test
		return res, makeSpillFilesReadOnly(t, dir)
	}
}

// makeSpillFilesReadOnly replaces every open descriptor of an unlinked
// spill file under dir with a read-only descriptor of the same file and
// returns how many it replaced.
func makeSpillFilesReadOnly(t *testing.T, dir string) int {
	t.Helper()
	links, ok := spillFDs(dir)
	if !ok {
		t.Skip("no /proc/self/fd")
	}
	for _, link := range links {
		ro, err := os.Open(link)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := strconv.Atoi(filepath.Base(link))
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(ro.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		ro.Close()
	}
	return len(links)
}
