package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/xrand"
)

// span is one timed step of a traced job or read; spans of one operation
// share Op. The benchmark replays a served job's steps after the server
// ran them, so a replayed child is timed where it runs: a span's self
// time is its duration minus its children's durations, not an interval
// overlap.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Name   string  `json:"name"`
	Op     string  `json:"op"`
	Start  float64 `json:"startMs"` // since the run began
	Dur    float64 `json:"durMs"`
}

// tracer keeps a traced run's spans in memory, plus the per-operation
// counts measured at the same boundaries.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string][]float64)}
}

// add records a span and returns its ID, for children to name as parent.
func (t *tracer) add(parent int, name, op string, start time.Time, dur time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: ms(start.Sub(t.t0)), Dur: ms(dur)})
	return id
}

// count records one sample of a per-operation count or ratio.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// timed runs f and returns when it started and how long it took.
func timed(f func()) (time.Time, time.Duration) {
	start := time.Now()
	f()
	return start, time.Since(start)
}

// traceJob replays one served job layer by layer under its spans: root
// covers POST to done event and submit the POST. The queue wait comes
// from the job view. Replayed: wire decode and resolution (children of
// the POST, which ran them on the server), the memo's proximity,
// Algorithm 1's subgraphs and the weight fill (children of the training
// span, which repeats both inside), core.TrainContext with its stage
// split, a dense twin of a spilled job, and the artifact save into
// scratch. The replayed embedding must hash like the served one.
func (t *tracer) traceJob(ctx context.Context, memo *experiments.Memo, scratch string, body []byte, id, hash string, root, submit int, submitEnd time.Time, queue time.Duration) error {
	t.add(root, "service.queue", id, submitEnd, queue)

	var sp *spec.JobSpec
	var err error
	start, dur := timed(func() { sp, err = decodeSpec(body) })
	if err != nil {
		return err
	}
	t.add(submit, "spec.decode", id, start, dur)

	var r *resolved
	start, dur = timed(func() { r, err = resolveSpec(memo, sp, id) })
	if err != nil {
		return err
	}
	t.add(submit, "service.resolve", id, start, dur)

	var prox proximity.Proximity
	start, dur = timed(func() { prox, err = memo.Proximity(r.g, r.prox.Name(), r.cfg.Workers) })
	if err != nil {
		return err
	}
	t.add(root, "experiments.memo_proximity", id, start, dur)
	_, hit := prox.(*proximity.Sparse)
	t.count("experiments.memo_hits", b2f(hit))
	t.count("experiments.memo_misses", b2f(!hit))

	var subs []core.Subgraph
	subStart, subDur := timed(func() {
		subs, err = core.GenerateSubgraphsWorkers(r.g, r.cfg.K, r.cfg.NegSampling, xrand.New(r.cfg.Seed), r.cfg.Workers)
	})
	if err != nil {
		return err
	}
	fillStart, fillDur := timed(func() { fillWeights(prox, subs, r.cfg.Workers) })
	t.count("proximity.at_calls", float64(len(subs)))

	var res *core.Result
	trainStart, trainDur := timed(func() { res, err = r.train(ctx, prox, r.cfg.MemoryBudget) })
	if err != nil {
		return err
	}
	defer release(res)
	if got := hashOf(res); got != hash {
		return fmt.Errorf("job %s: replay hashes %s, served %s", id, got, hash)
	}
	train := t.add(root, "core.train", id, trainStart, trainDur)
	t.add(train, "core.subgraphs", id, subStart, subDur)
	t.add(train, "proximity.weight_fill", id, fillStart, fillDur)
	// The stage clocks are cumulative over the epochs; their spans are
	// laid end to end after the setup stage.
	at := trainStart.Add(res.Stages.Subgraphs)
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"core.gradients", res.Stages.Gradients}, {"core.reduce", res.Stages.Reduce}, {"core.update", res.Stages.Update}} {
		t.add(train, st.name, id, at, st.d)
		at = at.Add(st.d)
	}
	t.count("mathx.spill_resident_mb", float64(residentBytes(r, res))/(1<<20))

	denseStart, denseDur := trainStart, trainDur
	if r.spilled() {
		var dense *core.Result
		denseStart, denseDur = timed(func() { dense, err = r.train(ctx, prox, 0) })
		if err != nil {
			return err
		}
		got := hashOf(dense)
		release(dense)
		if got != hash {
			return fmt.Errorf("job %s: dense twin hashes %s, spilled run served %s", id, got, hash)
		}
	}
	t.add(-1, "core.train_dense", id, denseStart, denseDur)
	t.count("mathx.spill_overhead", float64(trainDur)/float64(denseDur))

	store, err := service.NewStore(scratch)
	if err != nil {
		return err
	}
	start, dur = timed(func() { err = store.Save(r.key, res) })
	if err != nil {
		return err
	}
	t.add(root, "service.store_save", id, start, dur)
	files, err := filepath.Glob(filepath.Join(scratch, id+"-*.result.gob"))
	if err != nil || len(files) != 1 {
		return fmt.Errorf("job %s: saved artifact not found in scratch store", id)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		return err
	}
	t.count("service.artifact_mb", float64(fi.Size())/(1<<20))
	return os.Remove(files[0])
}

// traceRead replays one row read: the GET round trip with the in-process
// Service.ResultRows beneath it (their difference is the HTTP layer's
// self time), then the store's keyed and by-ID window reads.
func (t *tracer) traceRead(st *stack, store *service.Store, rep int, j *served, lo int) error {
	hi := lo + windowRows
	op := fmt.Sprintf("%s[%d:%d]@%d", j.id, lo, hi, rep)
	var res spec.ResultResponse
	var err error
	start, dur := timed(func() { res, err = st.rows(rep, j.id, lo, hi) })
	if err == nil {
		err = checkWindow(res, j, lo, hi, nil)
	}
	if err != nil {
		return err
	}
	rows := t.add(-1, "server.rows", op, start, dur)
	start, dur = timed(func() { _, err = st.svcs[rep].ResultRows(j.id, lo, hi) })
	if err != nil {
		return err
	}
	t.add(rows, "service.result_rows", op, start, dur)
	meta, ok := st.svcs[rep].ArtifactMeta(j.id)
	if !ok {
		return fmt.Errorf("job %s: no artifact in the store", j.id)
	}
	start, dur = timed(func() { _, err = store.LoadRows(meta.Key, lo, hi) })
	if err != nil {
		return err
	}
	t.add(-1, "service.load_rows", op, start, dur)
	start, dur = timed(func() { _, err = store.LoadRowsByID(j.id, lo, hi) })
	if err != nil {
		return err
	}
	t.add(-1, "service.load_rows_by_id", op, start, dur)
	t.count("replica.cross_frac", b2f(rep != j.home))
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// childTime returns, per span ID, the summed durations of its direct
// children.
func (t *tracer) childTime() map[int]float64 {
	sum := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			sum[s.Parent] += s.Dur
		}
	}
	return sum
}

// durations returns the durations of the spans named name, less
// minus[id] each: pass childTime() for self times, nil for whole spans.
func (t *tracer) durations(name string, minus map[int]float64) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur-minus[s.ID])
		}
	}
	return out
}

// coverage returns, per traced job, the summed durations of its root's
// direct children over the root's duration: how much of the served job's
// wall clock the layer spans account for.
func (t *tracer) coverage() []float64 {
	sum := t.childTime()
	var out []float64
	for _, s := range t.spans {
		if s.Name == "job" && s.Dur > 0 {
			out = append(out, sum[s.ID]/s.Dur)
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics from the spans and counts:
// p50 per operation for times and per-op counts, totals for the memo's
// hits and misses, and means for the fractions.
func (t *tracer) layerMetrics(r *run) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p50 := func(name, span string, minus map[int]float64) {
		r.set(name, "ms", percentile(t.durations(span, minus), 0.5))
	}
	for _, m := range []struct{ name, span string }{
		{"server.submit_ms", "server.submit"},
		{"spec.decode_ms", "spec.decode"},
		{"service.resolve_ms", "service.resolve"},
		{"service.queue_ms", "service.queue"},
		{"experiments.memo_proximity_ms", "experiments.memo_proximity"},
		{"core.subgraphs_ms", "core.subgraphs"},
		{"proximity.weight_fill_ms", "proximity.weight_fill"},
		{"core.train_ms", "core.train"},
		{"core.gradients_ms", "core.gradients"},
		{"core.reduce_ms", "core.reduce"},
		{"core.update_ms", "core.update"},
		{"core.train_dense_ms", "core.train_dense"},
		{"service.store_save_ms", "service.store_save"},
		{"service.load_rows_ms", "service.load_rows"},
		{"service.load_rows_by_id_ms", "service.load_rows_by_id"},
		{"server.rows_ms", "server.rows"},
		{"trace.job_ms", "job"},
	} {
		p50(m.name, m.span, nil)
	}
	p50("server.rows_self_ms", "server.rows", t.childTime())

	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	mean := func(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
	r.set("experiments.memo_hits", "count", sum(t.counts["experiments.memo_hits"]))
	r.set("experiments.memo_misses", "count", sum(t.counts["experiments.memo_misses"]))
	r.set("proximity.at_calls", "count", percentile(t.counts["proximity.at_calls"], 0.5))
	r.set("stream.events_per_job", "count", percentile(t.counts["stream.events_per_job"], 0.5))
	r.set("mathx.spill_overhead", "ratio", percentile(t.counts["mathx.spill_overhead"], 0.5))
	r.set("mathx.spill_resident_mb", "MiB", percentile(t.counts["mathx.spill_resident_mb"], 0.5))
	r.set("service.artifact_mb", "MiB", percentile(t.counts["service.artifact_mb"], 0.5))
	r.set("replica.cross_frac", "ratio", mean(t.counts["replica.cross_frac"]))
	r.set("service.dedup_ratio", "ratio", mean(t.counts["service.dedup_ratio"]))
	r.set("trace.coverage", "ratio", percentile(t.coverage(), 0.5))
}

// layerSummary is the spans file's digest: per span name, how many there
// were and the p50 of their durations and self times; per layer (the
// module before the dot), the summed self time per traced job.
type layerSummary struct {
	Spans  map[string]spanStats `json:"spans"`
	Layers map[string]float64   `json:"layerSelfMsPerJob"`
}

type spanStats struct {
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50Ms"`
	SelfP50 float64 `json:"selfP50Ms"`
}

// writeSpans writes every span and the self-time summary to path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := layerSummary{Spans: make(map[string]spanStats), Layers: make(map[string]float64)}
	var names []string
	for _, s := range t.spans {
		if _, ok := sum.Spans[s.Name]; !ok {
			sum.Spans[s.Name] = spanStats{}
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	jobOps := make(map[string]bool)
	for _, s := range t.spans {
		if s.Name == "job" {
			jobOps[s.Op] = true
		}
	}
	children := t.childTime()
	for _, s := range t.spans {
		layer, _, found := strings.Cut(s.Name, ".")
		if found && jobOps[s.Op] && s.Name != "core.train_dense" {
			sum.Layers[layer] += (s.Dur - children[s.ID]) / float64(len(jobOps))
		}
	}
	for _, name := range names {
		d := t.durations(name, nil)
		sum.Spans[name] = spanStats{N: len(d), P50Ms: percentile(d, 0.5), SelfP50: percentile(t.durations(name, children), 0.5)}
	}
	data, err := json.MarshalIndent(struct {
		Summary layerSummary `json:"summary"`
		Spans   []span       `json:"spans"`
	}{sum, slices.Clone(t.spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
