package service

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"seprivgemb/internal/spec"
	"seprivgemb/internal/sweep"
)

// sweepRingSpec is a small grid over the serving tests' ring graph:
// 1 graph × 2 methods × 2 ε × 2 seeds = 8 cells.
func sweepRingSpec() *spec.SweepSpec {
	return &spec.SweepSpec{
		Graphs:    []spec.GraphSource{ringSpec().Graph},
		Methods:   []string{"sepriv", "gap"},
		Epsilons:  []float64{0.5, 1.0},
		Seeds:     []uint64{1, 2},
		Proximity: "degree",
		Config:    spec.ConfigSpec{Dim: 8, BatchSize: 16, MaxEpochs: 2},
	}
}

func waitSweep(t *testing.T, sw *Sweep) *spec.SweepResultResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := sw.Wait(ctx)
	if err != nil {
		t.Fatalf("sweep %s did not complete: %v", sw.ID(), err)
	}
	return res
}

func TestSweepEndToEnd(t *testing.T) {
	svc := New(Options{MaxWorkers: 2})
	defer svc.Close()
	sw, err := svc.SubmitSweep(sweepRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := waitSweep(t, sw)
	if res.Status != "done" || res.Counts.Done != 8 || res.Counts.Failed != 0 {
		t.Fatalf("sweep outcome: status %q counts %+v", res.Status, res.Counts)
	}
	// 4 (method, ε) groups × 1 graph, every group aggregating 2 seeds.
	if len(res.Table.Rows) != 4 {
		t.Fatalf("table has %d rows, want 4: %+v", len(res.Table.Rows), res.Table.Rows)
	}
	for _, r := range res.Table.Rows {
		if r.N != 2 {
			t.Fatalf("row %+v aggregates %d seeds, want 2", r, r.N)
		}
	}
	// Every cell's job is drill-down reachable under its listed ID.
	for _, c := range res.Cells {
		j, ok := svc.JobByID(c.JobID)
		if !ok {
			t.Fatalf("cell job %s not resolvable", c.JobID)
		}
		if j.Status() != StatusDone {
			t.Fatalf("cell job %s status %v", c.JobID, j.Status())
		}
		sub, started, finished := j.Timing()
		if sub.IsZero() || started.IsZero() || finished.IsZero() || finished.Before(started) || started.Before(sub) {
			t.Fatalf("cell job %s timing not monotone: %v %v %v", c.JobID, sub, started, finished)
		}
	}
	// The sweep deduplicated nothing away from the jobs: 8 distinct cells
	// → 8 trainings.
	if tr := svc.Trainings(); tr != 8 {
		t.Fatalf("trainings = %d, want 8", tr)
	}
}

// TestSweepDeterministicAcrossWorkers is the worker-count half of the
// determinism contract at the sweep level: two fresh services at Workers 1
// and 4 must serve byte-identical aggregated results.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var blobs [][]byte
	for _, workers := range []int{1, 4} {
		svc := New(Options{MaxWorkers: workers})
		sw, err := svc.SubmitSweep(sweepRingSpec())
		if err != nil {
			t.Fatal(err)
		}
		res := waitSweep(t, sw)
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
		svc.Close()
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatalf("sweep result differs across worker counts:\n%s\nvs\n%s", blobs[0], blobs[1])
	}
}

// TestSweepFailedCellExcluded: a config the baselines reject makes their
// cells fail at submission while the default method's cells complete — the
// sweep finishes "done" with the failures recorded and excluded from the
// aggregate.
func TestSweepFailedCellExcluded(t *testing.T) {
	svc := New(Options{MaxWorkers: 2})
	defer svc.Close()
	sp := sweepRingSpec()
	f := false
	sp.Config.Private = &f // gap has no non-private variant
	sw, err := svc.SubmitSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := waitSweep(t, sw)
	if res.Status != "done" {
		t.Fatalf("sweep status %q, want done (failures are not fatal)", res.Status)
	}
	if res.Counts.Done != 4 || res.Counts.Failed != 4 {
		t.Fatalf("counts %+v, want 4 done + 4 failed", res.Counts)
	}
	for _, c := range res.Cells {
		switch c.Method {
		case "gap":
			if c.Status != "failed" || c.Error == "" || c.Metric != nil {
				t.Fatalf("gap cell %+v, want failed with an error and no metric", c)
			}
		case "sepriv":
			if c.Status != "done" || c.Metric == nil {
				t.Fatalf("sepriv cell %+v, want done with a metric", c)
			}
		}
	}
	for _, r := range res.Table.Rows {
		if r.Method == "gap" {
			t.Fatalf("aggregate includes a fully-failed group: %+v", r)
		}
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("table has %d rows, want the 2 sepriv groups", len(res.Table.Rows))
	}
}

// TestSweepResubmitIsCacheHit: resubmitting a finished grid returns the
// SAME sweep (same ID, already done) without a single new training.
func TestSweepResubmitIsCacheHit(t *testing.T) {
	svc := New(Options{MaxWorkers: 2})
	defer svc.Close()
	sw1, err := svc.SubmitSweep(sweepRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	res1 := waitSweep(t, sw1)
	trained := svc.Trainings()

	sw2, err := svc.SubmitSweep(sweepRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sw2 != sw1 {
		t.Fatalf("resubmission created a new sweep %s, want the existing %s", sw2.ID(), sw1.ID())
	}
	res2, ok := sw2.Result()
	if !ok {
		t.Fatal("resubmitted finished sweep has no immediate result")
	}
	if res2 != res1 {
		t.Fatal("resubmitted sweep result is not the shared aggregate")
	}
	if svc.Trainings() != trained {
		t.Fatalf("resubmission trained: %d → %d", trained, svc.Trainings())
	}
}

// TestSweepLinkAUCCellDedupsOntoSpec pins the dedup contract between a
// sweep cell and a plain submission: once a link-prediction sweep has
// finished, an inline JobSpec of one cell's split train graph (its edges
// listed in any order), with that cell's method, measure, ε and seed, is
// the cell's job — SubmitSpec returns its ID and trains nothing. The batch
// size is above the split's edge count, so both sides apply the clamp.
func TestSweepLinkAUCCellDedupsOntoSpec(t *testing.T) {
	svc := New(Options{MaxWorkers: 2})
	defer svc.Close()
	sp := sweepRingSpec()
	sp.Eval.Metric = spec.MetricLinkAUC
	sp.Config.BatchSize = 64
	sw, err := svc.SubmitSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res := waitSweep(t, sw); res.Counts.Done != 8 {
		t.Fatalf("linkauc sweep counts %+v, want 8 done", res.Counts)
	}
	// A finished sweep no longer holds its plan: expand the same grid again.
	plan, err := sweep.Expand(sp, svc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ID != sw.ID() {
		t.Fatalf("re-expanded plan %s, sweep %s", plan.ID, sw.ID())
	}
	trained := svc.Trainings()
	for _, c := range plan.Cells {
		g := c.TrainGraph()
		edges := make([][2]int, 0, g.NumEdges())
		for i := g.NumEdges() - 1; i >= 0; i-- {
			e := g.Edge(i)
			edges = append(edges, [2]int{int(e.V), int(e.U)})
		}
		cs := sp.Config
		cs.Epsilon = c.Epsilon
		cs.Seed = c.Seed
		j, err := svc.SubmitSpec(spec.JobSpec{
			Graph:     spec.GraphSource{Inline: &spec.InlineSource{Nodes: g.NumNodes(), Edges: edges}},
			Method:    c.Method,
			Proximity: sp.Proximity,
			Config:    cs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := JobID(c.Key); j.ID() != want || j.Key() != c.Key {
			t.Fatalf("cell %s eps=%g seed=%d: spec submitted as %s, want the cell's job %s",
				c.Method, c.Epsilon, c.Seed, j.ID(), want)
		}
	}
	if tr := svc.Trainings(); tr != trained {
		t.Fatalf("resubmitting the cells as specs trained: %d → %d", trained, tr)
	}
}

// TestFinishedSweepDropsPlan: once a link-prediction sweep has
// published its result, the handle no longer holds its plan or cells —
// every cell's measure and training graph and each split's pair lists —
// and its Status is served from the result: the same cells and counts,
// and the result's status.
func TestFinishedSweepDropsPlan(t *testing.T) {
	svc := New(Options{MaxWorkers: 2})
	defer svc.Close()
	sp := sweepRingSpec()
	sp.Eval.Metric = spec.MetricLinkAUC
	sw, err := svc.SubmitSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := waitSweep(t, sw)
	if res.Counts.Done != 8 {
		t.Fatalf("linkauc sweep counts %+v, want 8 done", res.Counts)
	}
	sw.mu.Lock()
	plan, cells := sw.plan, sw.cells
	sw.mu.Unlock()
	if plan != nil || cells != nil {
		t.Fatalf("finished sweep holds its plan (%v) and %d cells", plan != nil, len(cells))
	}
	st := sw.Status()
	if st.Status != res.Status || st.Counts != res.Counts {
		t.Fatalf("status %q %+v, result %q %+v", st.Status, st.Counts, res.Status, res.Counts)
	}
	got, _ := json.Marshal(st.Cells)
	want, _ := json.Marshal(res.Cells)
	if string(got) != string(want) || len(st.Cells) != 8 {
		t.Fatalf("status cells %s, result cells %s", got, want)
	}
}

// TestSweepRestartServedFromArtifacts: a new service over the same
// artifact directory re-runs the grid with every cell answered from disk —
// zero trainings, all artifact hits — and serves the byte-identical table.
// The persisted sweep artifact additionally answers SweepResult for the ID
// before any resubmission.
func TestSweepRestartServedFromArtifacts(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(Options{MaxWorkers: 2, ArtifactDir: dir})
	sw1, err := svc1.SubmitSweep(sweepRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	res1 := waitSweep(t, sw1)
	blob1, _ := json.Marshal(res1)
	svc1.Close()

	svc2 := New(Options{MaxWorkers: 2, ArtifactDir: dir})
	defer svc2.Close()
	// Before resubmission, the persisted sweep artifact answers by ID.
	fromDisk, ok := svc2.SweepResult(sw1.ID())
	if !ok {
		t.Fatalf("sweep %s not served from the artifact store after restart", sw1.ID())
	}
	diskBlob, _ := json.Marshal(fromDisk)
	if string(diskBlob) != string(blob1) {
		t.Fatalf("artifact-served sweep differs from the live result:\n%s\nvs\n%s", diskBlob, blob1)
	}
	// Resubmitting re-runs every cell from the artifact store: zero
	// trainings, one artifact hit per cell.
	sw2, err := svc2.SubmitSweep(sweepRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sw2.ID() != sw1.ID() {
		t.Fatalf("restart changed the sweep ID: %s vs %s", sw2.ID(), sw1.ID())
	}
	res2 := waitSweep(t, sw2)
	blob2, _ := json.Marshal(res2)
	if string(blob2) != string(blob1) {
		t.Fatalf("restarted sweep result differs:\n%s\nvs\n%s", blob2, blob1)
	}
	if tr := svc2.Trainings(); tr != 0 {
		t.Fatalf("restarted sweep trained %d times, want 0", tr)
	}
	if hits := svc2.store.Hits(); hits != 8 {
		t.Fatalf("restarted sweep hit the artifact store %d times, want 8", hits)
	}
}

// TestSweepCancelSparesSharedCells: canceling a sweep cancels only cells
// no other submitter holds. A cell deduplicated with an independent
// submission keeps running, completes, and is still aggregated.
func TestSweepCancelSparesSharedCells(t *testing.T) {
	svc := New(Options{MaxWorkers: 1})
	defer svc.Close()
	restore := occupyAllSlots(svc)
	sw, err := svc.SubmitSweep(sweepRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the feeder to queue every cell (no quota: it never blocks).
	deadline := time.Now().Add(10 * time.Second)
	st := sw.Status()
	for {
		allSubmitted := true
		for _, c := range st.Cells {
			if _, ok := svc.JobByID(c.JobID); !ok {
				allSubmitted = false
				break
			}
		}
		if allSubmitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep cells never all reached the queue")
		}
		time.Sleep(5 * time.Millisecond)
		st = sw.Status()
	}
	// Adopt one cell independently: identical spec → same job, holders 2.
	shared := ringSpec()
	shared.Method = "sepriv"
	shared.Config.MaxEpochs = 2
	shared.Config.Epsilon = 0.5
	shared.Config.Seed = 1
	dup, err := svc.SubmitSpec(shared)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Holders() != 2 {
		t.Fatalf("duplicate submission left holders at %d, want 2", dup.Holders())
	}
	sw.Cancel()
	restore()
	res := waitSweep(t, sw)
	if res.Status != "canceled" {
		t.Fatalf("sweep status %q, want canceled", res.Status)
	}
	if res.Counts.Done != 1 || res.Counts.Canceled != 7 {
		t.Fatalf("counts %+v, want exactly the shared cell done and 7 canceled", res.Counts)
	}
	for _, c := range res.Cells {
		if c.JobID == dup.ID() {
			if c.Status != "done" || c.Metric == nil {
				t.Fatalf("shared cell %+v, want done with a metric", c)
			}
		} else if c.Status != "canceled" {
			t.Fatalf("exclusive cell %+v, want canceled", c)
		}
	}
	// The independent submitter's job was untouched by the sweep cancel.
	if _, err := dup.Wait(context.Background()); err != nil {
		t.Fatalf("independently-held job failed after sweep cancel: %v", err)
	}
	if len(res.Table.Rows) != 1 || res.Table.Rows[0].N != 1 {
		t.Fatalf("table %+v, want the one surviving cell", res.Table.Rows)
	}
}

// TestSweepQuotaFeeding: a tenant quota smaller than the grid does not
// reject the sweep — the feeder trickles cells in as slots free up.
func TestSweepQuotaFeeding(t *testing.T) {
	svc := New(Options{MaxWorkers: 2, TenantInflight: 2})
	defer svc.Close()
	sp := sweepRingSpec()
	sp.Tenant = "grid"
	sw, err := svc.SubmitSweep(sp)
	if err != nil {
		t.Fatal(err)
	}
	res := waitSweep(t, sw)
	if res.Counts.Done != 8 {
		t.Fatalf("quota-fed sweep counts %+v, want 8 done", res.Counts)
	}
}
