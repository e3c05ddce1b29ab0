package seprivgemb_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"seprivgemb"
	"seprivgemb/internal/core"
)

func sessionTestInputs(t *testing.T) (*seprivgemb.Graph, seprivgemb.Proximity, seprivgemb.Config) {
	t.Helper()
	g, err := seprivgemb.GenerateDataset("chameleon", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	prox, err := seprivgemb.NewProximity("deepwalk", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seprivgemb.DefaultConfig()
	cfg.Dim = 16
	cfg.MaxEpochs = 30
	cfg.Seed = 3
	if cfg.BatchSize > g.NumEdges() {
		cfg.BatchSize = g.NumEdges()
	}
	return g, prox, cfg
}

func embHash(xs []float64) uint64 {
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

// TestSessionMatchesTrain: the Session facade must be bit-identical to the
// blocking core.Train it wraps.
func TestSessionMatchesTrain(t *testing.T) {
	g, prox, cfg := sessionTestInputs(t)
	want, err := core.Train(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if embHash(got.Embedding().Data) != embHash(want.Embedding().Data) {
		t.Fatal("Session.Run diverges from Train")
	}
}

// TestSessionCancelResumeAcceptance is the PR's acceptance criterion at the
// facade: Session.Run with a canceled context returns a partial Result
// whose checkpoint, resumed to completion (through the wire format),
// reproduces the uninterrupted run's hash bit for bit at workers ∈ {1, 4}.
func TestSessionCancelResumeAcceptance(t *testing.T) {
	g, prox, cfg := sessionTestInputs(t)
	for _, workers := range []int{1, 4} {
		full, err := seprivgemb.NewSession(g, prox,
			seprivgemb.WithConfig(cfg), seprivgemb.WithWorkers(workers),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := embHash(full.Embedding().Data)

		ctx, cancel := context.WithCancel(context.Background())
		hooked := 0
		partial, err := seprivgemb.NewSession(g, prox,
			seprivgemb.WithConfig(cfg), seprivgemb.WithWorkers(workers),
			seprivgemb.WithEpochHook(func(st seprivgemb.EpochStats) {
				hooked++
				if st.Epoch == 9 {
					cancel()
				}
			}),
		).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if partial.Stopped != seprivgemb.StopCanceled || partial.Epochs != 10 {
			t.Fatalf("workers=%d: partial stopped=%v epochs=%d, want canceled at 10",
				workers, partial.Stopped, partial.Epochs)
		}
		if hooked != partial.Epochs {
			t.Fatalf("workers=%d: hook fired %d times for %d epochs", workers, hooked, partial.Epochs)
		}
		if partial.Checkpoint == nil {
			t.Fatalf("workers=%d: canceled run has no checkpoint", workers)
		}

		var buf bytes.Buffer
		if err := partial.Checkpoint.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		ck, err := seprivgemb.DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := seprivgemb.NewSession(g, prox,
			seprivgemb.WithConfig(cfg), seprivgemb.WithWorkers(workers),
			seprivgemb.WithResume(ck),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := embHash(resumed.Embedding().Data); got != want {
			t.Fatalf("workers=%d: resumed hash %#x, uninterrupted %#x", workers, got, want)
		}
	}
}

// TestSessionWithCache: materializing the proximity must not change the
// result (row caching is a pure evaluation-speed trade).
func TestSessionWithCache(t *testing.T) {
	g, _, cfg := sessionTestInputs(t)
	// PageRank is row-lazy — the measure WithCache exists for.
	prox, err := seprivgemb.NewProximity("pagerank", g)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prox2, err := seprivgemb.NewProximity("pagerank", g)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := seprivgemb.NewSession(g, prox2,
		seprivgemb.WithConfig(cfg), seprivgemb.WithCache(), seprivgemb.WithWorkers(2),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if embHash(cached.Embedding().Data) != embHash(plain.Embedding().Data) {
		t.Fatal("WithCache changed the trained embedding")
	}
}

// TestServiceFacade: submissions through the exported Service dedupe and
// match direct training.
func TestServiceFacade(t *testing.T) {
	g, prox, cfg := sessionTestInputs(t)
	svc := seprivgemb.NewService(2)
	defer svc.Close()
	j1, err := svc.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical submissions were not deduplicated")
	}
	res, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j1.Status() != seprivgemb.JobDone {
		t.Fatalf("job status %v, want done", j1.Status())
	}
	want, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if embHash(res.Embedding().Data) != embHash(want.Embedding().Data) {
		t.Fatal("service result diverges from direct training")
	}
}

// TestEvalWorkersFacade: the sharded evaluation entry points agree with
// their serial counterparts exactly.
func TestEvalWorkersFacade(t *testing.T) {
	g, prox, cfg := sessionTestInputs(t)
	res, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	emb := res.Embedding()
	if got, want := seprivgemb.StrucEquWorkers(g, emb, 4), seprivgemb.StrucEqu(g, emb); got != want {
		t.Fatalf("StrucEquWorkers(4) = %v, serial %v", got, want)
	}
	split, err := seprivgemb.SplitLinkPrediction(g, 0.1, seprivgemb.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	score := seprivgemb.EmbeddingScorer(emb)
	if got, want := seprivgemb.LinkAUCWorkers(split, score, 4), seprivgemb.LinkAUC(split, score); got != want {
		t.Fatalf("LinkAUCWorkers(4) = %v, serial %v", got, want)
	}
}

// TestSubmitSpecFacade: the declarative submission surface re-exported at
// the root — a dataset JobSpec resolves, trains, and deduplicates against
// the equivalent in-memory Submit, and the stable job ID round-trips
// through JobByID.
func TestSubmitSpecFacade(t *testing.T) {
	svc := seprivgemb.NewServiceWith(seprivgemb.ServiceOptions{MaxWorkers: 2})
	defer svc.Close()

	sp := seprivgemb.JobSpec{
		Graph:     seprivgemb.GraphSource{Dataset: &seprivgemb.DatasetSource{Name: "chameleon", Scale: 0.05, Seed: 1}},
		Proximity: "deepwalk",
		Config:    seprivgemb.ConfigSpec{Dim: 16, MaxEpochs: 30, Seed: 3},
	}
	j, err := svc.SubmitSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := svc.JobByID(j.ID()); !ok || got != j {
		t.Fatal("JobByID does not resolve the spec-submitted job")
	}

	// The equivalent in-memory submission shares the job.
	g, prox, cfg := sessionTestInputs(t)
	j2, err := svc.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j2 != j {
		t.Fatal("JobSpec and in-memory Submit of one logical job did not deduplicate")
	}

	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := seprivgemb.NewSession(g, prox, seprivgemb.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if embHash(res.Embedding().Data) != embHash(want.Embedding().Data) {
		t.Fatal("spec-submitted result diverges from Session.Run")
	}

	// Bad specs classify through the re-exported sentinel.
	if _, err := svc.SubmitSpec(seprivgemb.JobSpec{Proximity: "deepwalk"}); !errors.Is(err, seprivgemb.ErrInvalidSpec) {
		t.Fatalf("invalid spec error = %v, want ErrInvalidSpec", err)
	}
}

// TestRowRangeFacade pins the partial-embedding serving surface of the
// facade: Result.Rows windows the in-memory embedding, an encoded
// checkpoint serves the same window through DecodeCheckpointRows without
// a full decode, and a Service with an artifact store serves it again
// through ResultRows — all three bit-identical.
func TestRowRangeFacade(t *testing.T) {
	g, prox, cfg := sessionTestInputs(t)
	cfg.MaxEpochs = 5
	var ck *seprivgemb.Checkpoint
	res, err := seprivgemb.NewSession(g, prox,
		seprivgemb.WithConfig(cfg),
		seprivgemb.WithCheckpointEvery(0, func(c *seprivgemb.Checkpoint) { ck = c }),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no final checkpoint delivered")
	}
	lo, hi := 7, 23
	mem, err := res.Rows(lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	win, err := seprivgemb.DecodeCheckpointRows(bytes.NewReader(raw), int64(len(raw)), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if win.TotalRows != g.NumNodes() || win.Dim != cfg.Dim {
		t.Fatalf("checkpoint window metadata %+v", win)
	}
	if embHash(win.Rows.Data) != embHash(mem.Data) {
		t.Fatal("checkpoint window diverges from the in-memory rows")
	}

	// A stream without the v3 head is refused, not misread.
	if _, err := seprivgemb.DecodeCheckpointRows(bytes.NewReader(raw[8:]), int64(len(raw)-8), lo, hi); err == nil {
		t.Error("headless stream accepted")
	}

	// And the service path: artifact-backed windows under the same hash.
	svc := seprivgemb.NewServiceWith(seprivgemb.ServiceOptions{MaxWorkers: 2, ArtifactDir: t.TempDir()})
	defer svc.Close()
	job, err := svc.Submit(g, prox, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	sw, err := svc.ResultRows(job.ID(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if embHash(sw.Rows.Data) != embHash(mem.Data) {
		t.Fatal("service window diverges from the in-memory rows")
	}
	if sw.FullHash != embHash(res.Embedding().Data) {
		t.Fatal("service window's full hash does not cover the whole matrix")
	}
}
