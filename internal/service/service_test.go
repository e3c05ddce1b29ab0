package service

import (
	"bytes"
	"context"
	"errors"
	"log"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/xrand"
)

func testGraph() *graph.Graph { return graph.BarabasiAlbert(60, 2, xrand.New(42)) }

func testCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Dim = 8
	cfg.BatchSize = 16
	cfg.MaxEpochs = 10
	cfg.Seed = 1
	return cfg
}

func hash64(xs []float64) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, x := range xs {
		b := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// TestSubmitAndWait: the service's result matches a direct Train call bit
// for bit — queueing changes nothing about the output.
func TestSubmitAndWait(t *testing.T) {
	g := testGraph()
	cfg := testCfg()
	want, err := core.Train(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{MaxWorkers: 2})
	defer s.Close()
	j, err := s.Submit(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j.Status() != StatusDone {
		t.Fatalf("status %v, want done", j.Status())
	}
	if hash64(res.Embedding().Data) != hash64(want.Embedding().Data) {
		t.Fatal("service result diverges from direct Train")
	}
	if st, ok := j.Progress(); !ok || st.Epoch != res.Epochs-1 {
		t.Fatalf("progress (%+v, %v) after completion", st, ok)
	}
}

// TestDeduplication: identical submissions share one Job; different configs
// do not.
func TestDeduplication(t *testing.T) {
	g := testGraph()
	cfg := testCfg()
	s := New(Options{MaxWorkers: 2})
	defer s.Close()

	j1, err := s.Submit(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical submissions produced distinct jobs")
	}
	// Workers is excluded from the key: it can never change the result.
	wcfg := cfg
	wcfg.Workers = 4
	j3, err := s.Submit(g, proximity.NewDeepWalk(g), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if j3 != j1 {
		t.Fatal("a Workers-only config change broke deduplication")
	}
	// A result-shaping change must NOT be deduplicated.
	cfg2 := cfg
	cfg2.Seed = 2
	j4, err := s.Submit(g, proximity.NewDeepWalk(g), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if j4 == j1 {
		t.Fatal("different seeds were deduplicated")
	}
	// A different proximity must not be deduplicated either.
	j5, err := s.Submit(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j5 == j1 {
		t.Fatal("different proximities were deduplicated")
	}
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j4.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j5.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRunning: canceling a running job yields a partial, resumable
// result, and the partial is NOT memoized — a resubmission trains afresh
// and completes.
func TestCancelRunning(t *testing.T) {
	g := testGraph()
	cfg := testCfg()
	cfg.MaxEpochs = 10000 // long enough to reliably cancel mid-run
	cfg.Private = false   // no budget stop
	s := New(Options{MaxWorkers: 1})
	defer s.Close()

	j, err := s.Submit(g, proximity.NewDeepWalk(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until at least one epoch completed, then cancel.
	for {
		if _, ok := j.Progress(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j.Status() != StatusCanceled {
		t.Fatalf("status %v, want canceled", j.Status())
	}
	if res == nil || res.Stopped != core.StopCanceled || res.Checkpoint == nil {
		t.Fatalf("canceled job result: %+v", res)
	}
	if res.Epochs >= cfg.MaxEpochs {
		t.Fatalf("cancel had no effect: ran all %d epochs", res.Epochs)
	}

	// Resubmit: the canceled partial must not be served to a new run.
	cfg2 := cfg
	cfg2.MaxEpochs = 20
	j2, err := s.Submit(g, proximity.NewDeepWalk(g), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stopped == core.StopCanceled || res2.Epochs != 20 {
		t.Fatalf("resubmission after cancel: stopped=%v epochs=%d", res2.Stopped, res2.Epochs)
	}
}

// TestCancelQueued: a job canceled while waiting for slots never trains.
func TestCancelQueued(t *testing.T) {
	g := testGraph()
	s := New(Options{MaxWorkers: 1})
	defer s.Close()

	blocker := testCfg()
	blocker.MaxEpochs = 10000
	blocker.Private = false
	jb, err := s.Submit(g, proximity.NewDeepWalk(g), blocker)
	if err != nil {
		t.Fatal(err)
	}
	// Only submit the second job once the blocker holds the sole slot, so
	// "canceled while queued" is what we actually exercise.
	for jb.Status() != StatusRunning {
		time.Sleep(time.Millisecond)
	}
	queued := testCfg()
	queued.Seed = 7
	jq, err := s.Submit(g, proximity.NewDeepWalk(g), queued)
	if err != nil {
		t.Fatal(err)
	}
	jq.Cancel()
	// A queued cancel never trained: no partial result exists, so Wait
	// reports context.Canceled rather than a nil Result.
	res, err := jq.Wait(context.Background())
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("queued-cancel Wait = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if jq.Status() != StatusCanceled {
		t.Fatalf("queued-cancel status %v, want canceled", jq.Status())
	}
	if _, ok := jq.Progress(); ok {
		t.Fatal("a queued-canceled job reported training progress")
	}
	jb.Cancel()
	if _, err := jb.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerBound: with MaxWorkers=1 two submitted jobs never train
// concurrently (observed via the global slot invariant: the second job's
// first epoch begins only after the first job finished).
func TestWorkerBound(t *testing.T) {
	g := testGraph()
	s := New(Options{MaxWorkers: 1})
	defer s.Close()

	var mu sync.Mutex
	running := 0
	maxRunning := 0
	cfgA := testCfg()
	cfgB := testCfg()
	cfgB.Seed = 99
	var jobs []*Job
	for _, cfg := range []core.Config{cfgA, cfgB} {
		j, err := s.Submit(g, proximity.NewDeepWalk(g), cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Sample the "simultaneously running" count while both jobs drain.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, j := range jobs {
			j.Wait(context.Background())
		}
	}()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			mu.Lock()
			n := 0
			for _, j := range jobs {
				if j.Status() == StatusRunning {
					n++
				}
			}
			running = n
			if running > maxRunning {
				maxRunning = running
			}
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}
	if maxRunning > 1 {
		t.Fatalf("observed %d jobs running under MaxWorkers=1", maxRunning)
	}
}

// TestSubmitAfterClose errors instead of leaking a goroutine.
func TestSubmitAfterClose(t *testing.T) {
	s := New(Options{})
	s.Close()
	if _, err := s.Submit(testGraph(), proximity.NewDeepWalk(testGraph()), testCfg()); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

// panickingProximity is a measure whose At panics, so a job on it panics
// in its edge-weight fill — on the fill's pool goroutines when the job
// has more than one worker.
type panickingProximity struct{ proximity.Proximity }

func (panickingProximity) Name() string        { return "panicking" }
func (panickingProximity) At(_, _ int) float64 { panic("proximity At failed") }

// TestJobPanicFailsJobNotService: a panic inside a 2-worker job, raised on
// one of its pool goroutines, fails that job with the panic's text, logs
// the stack of the goroutine that panicked, and the service goes on to
// train the next job.
func TestJobPanicFailsJobNotService(t *testing.T) {
	var logged bytes.Buffer // written before the job's done closes, read after
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	s := New(Options{MaxWorkers: 2})
	defer s.Close()
	g := testGraph()
	cfg := testCfg()
	cfg.Workers = 2
	j, err := s.Submit(g, panickingProximity{proximity.NewDegree(g)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "proximity At failed") {
		t.Fatalf("panicking job: err = %v, want the panic's text", err)
	}
	if j.Status() != StatusFailed {
		t.Fatalf("panicking job: status %v, want failed", j.Status())
	}
	if out := logged.String(); !strings.Contains(out, "proximity At failed") ||
		!strings.Contains(out, "panickingProximity.At(") || !strings.Contains(out, "panicx.Blocks.func") {
		t.Fatalf("log does not hold the panic and its pool goroutine's stack:\n%s", out)
	}
	next, err := s.Submit(g, proximity.NewDegree(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Wait(context.Background()); err != nil || next.Status() != StatusDone {
		t.Fatalf("job after the panic: status %v, err %v", next.Status(), err)
	}
}
