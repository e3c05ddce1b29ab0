//go:build linux

package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/proximity"
)

// spillTempDir points new spill files at a fresh directory and returns
// its resolved path, the prefix their /proc/self/fd links show.
func spillTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	return dir
}

// spillFDs returns this process's open descriptors of (unlinked) spill
// files created under dir.
func spillFDs(t *testing.T, dir string) []int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var fds []int
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(target, filepath.Join(dir, "sepriv-spill-")) {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	return fds
}

// reopenSpillFiles replaces every spill file descriptor under dir with a
// descriptor of the same file opened with flag (dup3) and returns how
// many it replaced: os.O_RDONLY makes the next write-back's pwrite fail
// with EBADF, os.O_WRONLY the next read's pread.
func reopenSpillFiles(t *testing.T, dir string, flag int) int {
	t.Helper()
	fds := spillFDs(t, dir)
	for _, fd := range fds {
		f, err := os.OpenFile(filepath.Join("/proc/self/fd", strconv.Itoa(fd)), flag, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(f.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return len(fds)
}

// TestSpillFailureNeverCheckpointed: when the spill files stop serving
// reads between two checkpoints, the capture that hits the failure — its
// copy-out reads the rows no slab holds, and the pread fails — is never
// handed to the Checkpoint hook, which may persist it over the last good
// snapshot. The run fails with the *mathx.SpillError instead, and its
// spill files are closed by the time TrainContext returns.
func TestSpillFailureNeverCheckpointed(t *testing.T) {
	dir := spillTempDir(t)
	g := spillGraph(t)
	cfg := spillConfig()
	cfg.MemoryBudget = cfg.MinMemoryBudget(g.NumNodes())
	var delivered []int
	hooks := Hooks{
		CheckpointEvery: 1,
		Checkpoint:      func(ck *Checkpoint) { delivered = append(delivered, ck.Epoch) },
		Epoch: func(st EpochStats) {
			if st.Epoch == 1 { // after epoch 1's update, before its capture
				if n := reopenSpillFiles(t, dir, os.O_WRONLY); n != 2 {
					t.Errorf("found %d spill files of the run, want Win's and Wout's", n)
				}
			}
		},
	}
	res, err := TrainContext(context.Background(), g, proximity.NewDegree(g), cfg, hooks)
	var se *mathx.SpillError
	if !errors.As(err, &se) || se.Op != "read" || res != nil {
		t.Fatalf("TrainContext = (%v, %v), want (nil, a *mathx.SpillError on read)", res, err)
	}
	if len(delivered) != 1 || delivered[0] != 1 {
		t.Errorf("checkpoints delivered at epochs %v, want only the one before the failure, [1]", delivered)
	}
	if fds := spillFDs(t, dir); len(fds) != 0 {
		t.Errorf("failed run left %d spill files open", len(fds))
	}
}

// TestSpilledResultReadsFailLoudly: once a finished spilled result's
// backing files stop serving reads, no whole-matrix read of it returns
// rows silently — Embedding panics with the *mathx.SpillError, Rows
// returns it, and the artifact writer refuses to finish the stream.
func TestSpilledResultReadsFailLoudly(t *testing.T) {
	dir := spillTempDir(t)
	g := spillGraph(t)
	cfg := spillConfig()
	cfg.MemoryBudget = cfg.MinMemoryBudget(g.NumNodes())
	res, err := Train(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer res.CloseSpill()
	if n := reopenSpillFiles(t, dir, os.O_WRONLY); n != 2 {
		t.Fatalf("found %d spill files of the result, want Win's and Wout's", n)
	}
	var se *mathx.SpillError
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Error("Embedding over failing spill files returned rows")
			} else if err, ok := v.(error); !ok || !errors.As(err, &se) {
				t.Errorf("Embedding panicked with %v, want a *mathx.SpillError", v)
			}
		}()
		res.Embedding()
	}()
	if _, err := res.Rows(0, 10); !errors.As(err, &se) {
		t.Errorf("Rows = %v, want the spill error", err)
	}
	if err := WriteIndexed(io.Discard, &struct{ V int }{1}, res.Model.Win, res.Model.Wout); !errors.As(err, &se) {
		t.Errorf("WriteIndexed = %v, want the spill error", err)
	}
}

// TestPanickingRunClosesSpill: a spilled run that panics — here in its
// Epoch hook, after an epoch has trained — closes its spill files before
// the panic leaves TrainContext, so a caller that recovers it (the
// service, which keeps serving) does not hold their disk blocks until a
// finalizer runs.
func TestPanickingRunClosesSpill(t *testing.T) {
	dir := spillTempDir(t)
	g := spillGraph(t)
	cfg := spillConfig()
	cfg.Workers = 2
	cfg.MemoryBudget = cfg.MinMemoryBudget(g.NumNodes())
	open := -1
	hooks := Hooks{Epoch: func(st EpochStats) {
		open = len(spillFDs(t, dir))
		panic("epoch hook failed")
	}}
	got := func() (r any) {
		defer func() { r = recover() }()
		TrainContext(context.Background(), g, proximity.NewDegree(g), cfg, hooks)
		return nil
	}()
	if got != "epoch hook failed" || open != 2 {
		t.Fatalf("TrainContext panicked with %v, %d spill files open in the hook; want the hook's panic with Win's and Wout's", got, open)
	}
	if fds := spillFDs(t, dir); len(fds) != 0 {
		t.Errorf("panicked run left %d spill files open", len(fds))
	}
}
