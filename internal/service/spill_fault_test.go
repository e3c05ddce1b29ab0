//go:build linux

package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

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

// makeSpillFilesReadOnly replaces every open descriptor of an unlinked
// spill file under dir with a read-only descriptor of the same file and
// returns how many it replaced.
func makeSpillFilesReadOnly(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, e := range ents {
		link := filepath.Join("/proc/self/fd", e.Name())
		target, err := os.Readlink(link)
		if err != nil || !strings.HasPrefix(target, filepath.Join(dir, "sepriv-spill-")) {
			continue
		}
		ro, err := os.Open(link)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Dup3(int(ro.Fd()), fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		ro.Close()
		n++
	}
	return n
}
