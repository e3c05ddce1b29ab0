package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"seprivgemb/internal/mathx"
	"seprivgemb/internal/spec"
)

// Phase A operation kinds of serve-rows.
const (
	opRead = iota
	opResubmit
	opNew
)

// runServe runs serve-rows. Setup trains the read set across the
// replicas. Phase A (two thirds of the window) is an open loop: row reads
// of random jobs, offsets and replicas at readRate, dedup resubmissions
// of read-set specs to their home replica at resubmitRate, and a new
// training job every newJobEvery, all timed from their due times. Phase B
// (the rest) is a closed loop of reads back to back.
func runServe(ctx context.Context, r *run, w workload, seed int64, window time.Duration, tr *tracer) error {
	setupJS, err := newJobs(w.setupJob)
	if err != nil {
		return err
	}
	newJS, err := newJobs(w.job)
	if err != nil {
		return err
	}
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	st, jobs, full, err := setupServe(r, w, setupJS, seed, reps)
	if err != nil {
		return err
	}
	defer st.close()
	if tr != nil {
		return traceServe(ctx, r, w, newJS, st, jobs, seed, window, tr)
	}

	phaseA := window * 2 / 3
	type op struct {
		due  time.Duration
		kind int
		k    int // index within its kind
	}
	var ops []op
	for kind, s := range [][]time.Duration{
		schedule(w.readRate, phaseA, 0),
		schedule(w.resubmitRate, phaseA, 0),
		schedule(1/w.newJobEvery.Seconds(), phaseA, w.newJobEvery/2),
	} {
		for k, due := range s {
			ops = append(ops, op{due, kind, k})
		}
	}
	slices.SortStableFunc(ops, func(a, b op) int { return int(a.due - b.due) })
	due := make([]time.Duration, len(ops))
	for i, o := range ops {
		due[i] = o.due
	}

	var mu sync.Mutex
	var submits []float64
	var fresh []*served
	dResub, dNew := newDraws(seed, drawResubmit), newDraws(seed, drawNew)
	submit := func(rep int, body []byte) (spec.JobResponse, error) {
		start := time.Now()
		view, err := st.submit(rep, body)
		rt := failed
		if err == nil {
			rt = ms(time.Since(start))
		}
		mu.Lock()
		submits = append(submits, rt)
		mu.Unlock()
		return view, err
	}
	lat, late := openLoop(ctx, due, w.clients, func(i int) error {
		o := ops[i]
		var err error
		switch o.kind {
		case opRead:
			err = readRow(st, jobs, full, seed, o.k)
		case opResubmit:
			j := jobs[dResub.intn(o.k, len(jobs))]
			var view spec.JobResponse
			if view, err = submit(j.home, j.body); err == nil && view.ID != j.id {
				err = fmt.Errorf("resubmitted spec of job %s landed on %s", j.id, view.ID)
			}
		case opNew:
			rep := dNew.intn(o.k, len(st.svcs))
			body := newJS.body(jobSeed(seed, w.setupJobs+o.k))
			var view spec.JobResponse
			if view, err = submit(rep, body); err == nil {
				mu.Lock()
				fresh = append(fresh, &served{id: view.ID, home: rep, body: body})
				mu.Unlock()
			}
		}
		r.op(err)
		return err
	})
	var readLat, readLate []float64
	for i, o := range ops {
		if o.kind == opRead {
			readLat = append(readLat, lat[i])
			readLate = append(readLate, late[i])
		}
	}
	r.note("read_p50_ms", percentile(readLat, 0.5))
	r.note(fmt.Sprintf("read_p%g_ms", 100*w.tail), percentile(readLat, w.tail))
	r.note("submit_p50_ms", percentile(submits, 0.5))
	r.note("phase_a_reads", float64(len(readLat)))
	r.note("phase_a_submits", float64(len(submits)))
	r.note("generator_late_p99_ms", percentile(readLate, 0.99))
	r.note("generator_late_max_ms", percentile(readLate, 1))

	// The new jobs finish before phase B, so it measures reads alone.
	for _, j := range fresh {
		var err error
		_, j.hash, err = st.follow(j.home, j.id)
		r.op(err)
	}

	var reads int
	cpu0 := cpuTime()
	n, elapsed := closedLoop(ctx, w.clients, 0, time.Now().Add(window-phaseA), func(i int) {
		err := readRow(st, jobs, full, seed, len(readLat)+i)
		r.op(err)
		if err == nil {
			mu.Lock()
			reads++
			mu.Unlock()
		}
	})
	r.set("cpu_ms_per_op", "ms", ms(cpuTime()-cpu0)/float64(reads))
	r.note("reads_per_s", float64(reads)/elapsed.Seconds())
	r.note("phase_b_reads", float64(n))
	if err := setPeakRSS(r); err != nil {
		return err
	}

	// Output checks: every read was verified in readRow; each distinct
	// spec trained exactly once across the replicas; seed-chosen read-set
	// jobs retrain in process to their served hash.
	if got, want := st.trainings(), uint64(len(jobs)+len(fresh)); got != want {
		r.problem("%d trainings across the replicas for %d distinct specs", got, want)
	}
	for _, j := range chooseJobs(jobs, seed) {
		if err := checkJob(ctx, st.memos[j.home], j.body, j.id, j.hash, false); err != nil {
			r.problem("%v", err)
		}
	}
	return nil
}

// readRow performs read k of the read set: a seed-chosen job, window and
// replica, verified against the job's hash and, for one read in
// bitCheckEvery, bit for bit against the full embedding.
func readRow(st *stack, jobs []*served, full []*mathx.Matrix, seed int64, k int) error {
	ji := newDraws(seed, drawJob).intn(k, len(jobs))
	j := jobs[ji]
	lo := newDraws(seed, drawOffset).intn(k, j.nodes-windowRows+1)
	rep := newDraws(seed, drawReplica).intn(k, len(st.svcs))
	res, err := st.rows(rep, j.id, lo, lo+windowRows)
	if err != nil {
		return err
	}
	var want *mathx.Matrix
	if k%bitCheckEvery == 0 {
		want = full[ji]
	}
	return checkWindow(res, j, lo, lo+windowRows, want)
}

// checkWindow verifies a served row window: its row count, its
// full-matrix hash, and — given the full embedding — every bit.
func checkWindow(res spec.ResultResponse, j *served, lo, hi int, full *mathx.Matrix) error {
	if len(res.Embedding) != hi-lo || res.RowCount != hi-lo {
		return fmt.Errorf("job %s rows %d-%d: served %d rows (rowCount %d)", j.id, lo, hi, len(res.Embedding), res.RowCount)
	}
	if res.EmbeddingHash != j.hash {
		return fmt.Errorf("job %s rows %d-%d: hash %s, want %s", j.id, lo, hi, res.EmbeddingHash, j.hash)
	}
	if full == nil {
		return nil
	}
	for i, row := range res.Embedding {
		want := full.Row(lo + i)
		if len(row) != len(want) {
			return fmt.Errorf("job %s row %d: %d values, want %d", j.id, lo+i, len(row), len(want))
		}
		for c := range row {
			if math.Float64bits(row[c]) != math.Float64bits(want[c]) {
				return fmt.Errorf("job %s row %d col %d: %v, want %v", j.id, lo+i, c, row[c], want[c])
			}
		}
	}
	return nil
}

// setupServe builds the replica set and trains the read set through it —
// job i submitted to replica i mod replicas — reps times from scratch. It
// returns the last stack, the read set, and each job's full embedding for
// the bit checks.
func setupServe(r *run, w workload, js jobs, seed int64, reps int) (*stack, []*served, []*mathx.Matrix, error) {
	var clock setupClock
	var st *stack
	var jobs []*served
	var full []*mathx.Matrix
	for range reps {
		if st != nil {
			st.close()
		}
		err := clock.measure(func() error {
			var err error
			if st, err = newStack(w.replicas); err != nil {
				return err
			}
			if jobs, full, err = trainReadSet(r, st, w, js, seed); err != nil {
				st.close()
			}
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	clock.finish(r)
	return st, jobs, full, nil
}

func trainReadSet(r *run, st *stack, w workload, js jobs, seed int64) ([]*served, []*mathx.Matrix, error) {
	jobs := make([]*served, w.setupJobs)
	for i := range jobs {
		j := &served{home: i % len(st.svcs), body: js.body(jobSeed(seed, i))}
		view, err := st.submit(j.home, j.body)
		r.op(err)
		if err != nil {
			return nil, nil, err
		}
		j.id = view.ID
		jobs[i] = j
	}
	full := make([]*mathx.Matrix, len(jobs))
	for i, j := range jobs {
		var err error
		_, j.hash, err = st.follow(j.home, j.id)
		r.op(err)
		if err != nil {
			return nil, nil, err
		}
		res, err := st.result(j.home, j.id)
		if err != nil {
			return nil, nil, err
		}
		j.nodes = res.Nodes
		win, err := st.svcs[j.home].ResultRows(j.id, 0, j.nodes)
		if err != nil {
			return nil, nil, err
		}
		full[i] = win.Rows
	}
	return jobs, full, nil
}

// traceServe is serve-rows' traced run: one client alternates a dedup
// resubmission of a read-set spec with a new job that it follows and
// replays, up to traceJobs times, then up to traceReads reads of the
// read set.
func traceServe(ctx context.Context, r *run, w workload, js jobs, st *stack, jobs []*served, seed int64, window time.Duration, tr *tracer) error {
	scratch, err := os.MkdirTemp("", "seprivbench-scratch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	start := time.Now()
	before := st.trainings()
	dNew := newDraws(seed, drawNew)
	n, _ := closedLoop(ctx, 1, w.traceLimit(), start.Add(time.Duration(traceJobShare*float64(window))), func(i int) {
		j := jobs[i%len(jobs)]
		t0 := time.Now()
		view, err := st.submit(j.home, j.body)
		if err == nil && view.ID != j.id {
			err = fmt.Errorf("resubmitted spec of job %s landed on %s", j.id, view.ID)
		}
		r.op(err)
		tr.add(-1, "server.submit", j.id, t0, time.Since(t0))
		tracedJob(ctx, r, st, dNew.intn(i, len(st.svcs)), js.body(jobSeed(seed, w.setupJobs+i)), scratch, tr)
	})
	tr.count("service.dedup_ratio", 1-float64(st.trainings()-before)/float64(2*n))
	return traceReadsOf(ctx, r, st, jobs, seed, start.Add(window), window, tr)
}
