package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/xrand"
)

// served is a job the benchmark submitted and saw finish.
type served struct {
	id    string
	hash  string // embeddingHash of the done event
	home  int    // replica it was submitted to
	body  []byte
	nodes int
}

// jobRun is one submission followed to its terminal event.
type jobRun struct {
	served
	start, submitEnd, done time.Time
	events                 int
	err                    error
}

// latency is the job's POST-to-done time in ms, +Inf if it failed.
func (j *jobRun) latency() float64 {
	if j.err != nil {
		return failed
	}
	return ms(j.done.Sub(j.start))
}

// submitMs is the job's POST round trip in ms, +Inf if the POST failed.
func (j *jobRun) submitMs() float64 {
	if j.id == "" {
		return failed
	}
	return ms(j.submitEnd.Sub(j.start))
}

// runJob submits body to replica rep and follows the job's event stream
// to its done event.
func runJob(st *stack, rep int, body []byte) *jobRun {
	j := &jobRun{served: served{home: rep, body: body}, start: time.Now()}
	view, err := st.submit(rep, body)
	j.submitEnd = time.Now()
	if err != nil {
		j.err = err
		return j
	}
	j.id = view.ID
	j.events, j.hash, j.err = st.follow(rep, view.ID)
	j.done = time.Now()
	return j
}

// draws are the benchmark's seed-determined choices: draw i of a stream
// is a pure function of (seed, stream, i), so a closed loop makes the
// same choices however its operations interleave.
type draws struct{ s xrand.Stream }

func newDraws(seed int64, stream uint64) draws {
	return draws{xrand.NewStream(uint64(seed)).Derive(stream)}
}

// intn returns draw i in [0, n).
func (d draws) intn(i, n int) int { return int(d.s.Uint64At(uint64(i)) % uint64(n)) }

// Draw streams.
const (
	drawCheck uint64 = iota + 1
	drawJob
	drawOffset
	drawReplica
	drawResubmit
	drawNew
)

// runTrain runs a training workload: closed-loop clients each submit a
// job, follow its event stream to the done event, and submit the next.
func runTrain(ctx context.Context, r *run, w workload, seed int64, window time.Duration, tr *tracer) error {
	js, err := newJobs(w.job)
	if err != nil {
		return err
	}
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	st, err := setupTrain(r, js, seed, reps)
	if err != nil {
		return err
	}
	defer st.close()
	if tr != nil {
		return traceTrain(ctx, r, w, js, st, seed, window, tr)
	}

	var mu sync.Mutex
	var runs []*jobRun
	finished := 0
	var rssErr error
	cpu0 := cpuTime()
	n, elapsed := closedLoop(ctx, w.clients, w.maxJobs, time.Now().Add(window), func(i int) {
		j := runJob(st, 0, js.body(jobSeed(seed, i+1)))
		r.op(j.err)
		mu.Lock()
		defer mu.Unlock()
		runs = append(runs, j)
		if j.err == nil {
			if finished++; finished == w.rssAfter {
				rssErr = setPeakRSS(r)
			}
		}
	})
	cpu := cpuTime() - cpu0
	if finished < w.rssAfter {
		rssErr = setPeakRSS(r)
	}
	if rssErr != nil {
		return rssErr
	}
	var lat, sub []float64
	var done []*jobRun
	for _, j := range runs {
		lat = append(lat, j.latency())
		sub = append(sub, j.submitMs())
		if j.err == nil {
			done = append(done, j)
		}
	}
	r.set("cpu_ms_per_op", "ms", ms(cpu)/float64(len(done)))
	r.note("jobs_per_s", float64(len(done))/elapsed.Seconds())
	r.note("job_p50_ms", percentile(lat, 0.5))
	r.note(fmt.Sprintf("job_p%g_ms", 100*w.tail), percentile(lat, w.tail))
	r.note("submit_p50_ms", percentile(sub, 0.5))
	r.note("jobs", float64(n))

	// Output checks: one training per distinct spec (the warm-up plus
	// every measured job), and seed-chosen jobs retrained in process to
	// the served hash. A spilled workload retrains its second job without
	// the budget, so the dense tier must match the spilled serving too.
	if got, want := st.trainings(), uint64(n+1); got != want {
		r.problem("%d trainings for %d distinct specs", got, want)
	}
	for k, j := range chooseJobs(done, seed) {
		dense := w.job.memoryBudget > 0 && k == 1
		if err := checkJob(ctx, st.memos[0], j.body, j.id, j.hash, dense); err != nil {
			r.problem("%v", err)
		}
	}
	return nil
}

// setupTrain builds a one-replica stack and trains the warm-up job
// through it, reps times from scratch, and returns the last stack.
func setupTrain(r *run, js jobs, seed int64, reps int) (*stack, error) {
	var clock setupClock
	var st *stack
	for range reps {
		if st != nil {
			st.close()
		}
		err := clock.measure(func() error {
			var err error
			if st, err = newStack(1); err != nil {
				return err
			}
			j := runJob(st, 0, js.body(jobSeed(seed, 0)))
			r.op(j.err)
			if j.err != nil {
				st.close()
				return fmt.Errorf("warm-up job: %w", j.err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	clock.finish(r)
	return st, nil
}

// setupClock times a run's repeated set-ups. setup_s is the median of
// their CPU times: on a shared host, steal time can double a wall-clock
// set-up from one minute to the next, while CPU time still shows work
// moved into set-up. The wall-clock median is reported as information.
type setupClock struct{ cpu, wall []float64 }

func (c *setupClock) measure(setup func() error) error {
	start, cpu0 := time.Now(), cpuTime()
	if err := setup(); err != nil {
		return err
	}
	c.wall = append(c.wall, time.Since(start).Seconds())
	c.cpu = append(c.cpu, (cpuTime() - cpu0).Seconds())
	return nil
}

// finish reports the set-up metrics and collects the discarded set-ups'
// garbage, so measuring starts from the heap the kept stack needs.
func (c *setupClock) finish(r *run) {
	r.set("setup_s", "s", percentile(c.cpu, 0.5))
	r.note("setup_wall_s", percentile(c.wall, 0.5))
	runtime.GC()
}

// chooseJobs returns checkJobs distinct seed-chosen jobs (fewer if fewer
// finished).
func chooseJobs[T any](jobs []T, seed int64) []T {
	var out []T
	d := newDraws(seed, drawCheck)
	taken := make(map[int]bool)
	for i := 0; len(out) < min(checkJobs, len(jobs)); i++ {
		k := d.intn(i, len(jobs))
		if !taken[k] {
			taken[k] = true
			out = append(out, jobs[k])
		}
	}
	return out
}

func setPeakRSS(r *run) error {
	mib, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MiB", mib)
	return nil
}

// traceTrain is the traced run of a training workload: up to traceJobs
// jobs at the workload's concurrency, each replayed layer by layer after
// it finishes, then up to traceReads row reads of their artifacts.
func traceTrain(ctx context.Context, r *run, w workload, js jobs, st *stack, seed int64, window time.Duration, tr *tracer) error {
	scratch, err := os.MkdirTemp("", "seprivbench-scratch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	start := time.Now()
	before := st.trainings()
	var mu sync.Mutex
	var jobs []*served
	n, _ := closedLoop(ctx, w.clients, w.traceLimit(), start.Add(time.Duration(traceJobShare*float64(window))), func(i int) {
		if j := tracedJob(ctx, r, st, 0, js.body(jobSeed(seed, i+1)), scratch, tr); j != nil {
			mu.Lock()
			jobs = append(jobs, j)
			mu.Unlock()
		}
	})
	tr.count("service.dedup_ratio", 1-float64(st.trainings()-before)/float64(n))
	if len(jobs) == 0 {
		return fmt.Errorf("no traced job finished")
	}
	return traceReadsOf(ctx, r, st, jobs, seed, start.Add(window), window, tr)
}

// tracedJob submits body to replica rep, follows it to done, and replays
// it under the tracer; nil if the job failed.
func tracedJob(ctx context.Context, r *run, st *stack, rep int, body []byte, scratch string, tr *tracer) *served {
	j := runJob(st, rep, body)
	r.op(j.err)
	if j.err != nil {
		return nil
	}
	root := tr.add(-1, "job", j.id, j.start, j.done.Sub(j.start))
	submit := tr.add(root, "server.submit", j.id, j.start, j.submitEnd.Sub(j.start))
	tr.count("stream.events_per_job", float64(j.events))
	view, err := st.job(rep, j.id)
	if err == nil && view.Timing == nil {
		err = fmt.Errorf("job %s: no timing in the job view", j.id)
	}
	if err == nil {
		queue := time.Duration(view.Timing.QueueMs * float64(time.Millisecond))
		err = tr.traceJob(ctx, st.memos[rep], scratch, body, j.id, j.hash, root, submit, j.submitEnd, queue)
	}
	if err == nil {
		var res spec.ResultResponse
		res, err = st.result(rep, j.id)
		j.nodes = res.Nodes
	}
	if err != nil {
		r.problem("%v", err)
		return nil
	}
	return &j.served
}

// traceReadsOf replays up to traceReads row reads of jobs from two
// clients, on random replicas, until the deadline — or for a fifth of
// the window if the jobs ran past it.
func traceReadsOf(ctx context.Context, r *run, st *stack, jobs []*served, seed int64, deadline time.Time, window time.Duration, tr *tracer) error {
	store, err := service.NewStore(st.dir)
	if err != nil {
		return err
	}
	if least := time.Now().Add(window / 5); deadline.Before(least) {
		deadline = least
	}
	dj, do, dr := newDraws(seed, drawJob), newDraws(seed, drawOffset), newDraws(seed, drawReplica)
	closedLoop(ctx, 2, traceReads, deadline, func(i int) {
		j := jobs[dj.intn(i, len(jobs))]
		err := tr.traceRead(st, store, dr.intn(i, len(st.svcs)), j, do.intn(i, j.nodes-windowRows+1))
		r.op(err)
	})
	return nil
}
