package service

// The sweep orchestration layer: SubmitSweep expands a spec.SweepSpec into
// its cell plan (internal/sweep), fans the cells through the SAME
// submission path every individual job takes — so cells deduplicate
// against prior jobs, other sweeps, and the artifact store —
// evaluates each completed cell, and aggregates the paper-style table.
//
// A sweep is itself a job-like citizen: deterministic ID (a pure function
// of the canonicalized cell-key set), live per-cell status, honest failure
// semantics (a failed cell is recorded and excluded from the aggregate;
// the rest complete), cancellation that respects dedup (only cells no
// other submitter holds are canceled), and a persisted result artifact so
// a finished table survives restarts byte-for-byte.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/panicx"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/sweep"
)

// Sweep cell lifecycle states (the wire vocabulary of SweepCellInfo).
const (
	cellQueued   = "queued"
	cellRunning  = "running"
	cellDone     = "done"
	cellFailed   = "failed"
	cellCanceled = "canceled"
)

// sweepCell is one grid point's orchestration state. jobID is fixed at
// expansion (a pure function of the cell key); job and the terminal fields
// are guarded by the owning Sweep's mutex.
type sweepCell struct {
	c      *sweep.Cell
	jobID  string
	job    *Job     // set while submitted and not yet terminal
	status string   // terminal states only; "" while the job decides
	metric *float64 // set when status == cellDone
	errMsg string   // set when status == cellFailed
}

// Sweep is the handle to one submitted comparison grid.
type Sweep struct {
	id       string
	metric   string
	tenant   string
	priority int
	created  time.Time
	svc      *Service
	plan     *sweep.Plan

	mu       sync.Mutex
	cells    []*sweepCell
	canceled bool
	result   *spec.SweepResultResponse // set once, before done closes

	// finished signals cell completions to the feeder's quota-retry loop;
	// buffered to the cell count so waiters never block on it.
	finished chan struct{}
	done     chan struct{}
}

// ID returns the sweep's deterministic identifier.
func (sw *Sweep) ID() string { return sw.id }

// Metric returns the sweep's canonical metric name.
func (sw *Sweep) Metric() string { return sw.metric }

// Tenant returns the tenant recorded at submission.
func (sw *Sweep) Tenant() string { return sw.tenant }

// Created returns when this sweep handle was registered.
func (sw *Sweep) Created() time.Time { return sw.created }

// Done returns a channel closed when every cell is terminal and the
// aggregate is published.
func (sw *Sweep) Done() <-chan struct{} { return sw.done }

// Wait blocks until the sweep completes or ctx is done, then returns the
// aggregated outcome. A sweep always completes — failed and canceled
// cells are recorded, not fatal — so the only error is ctx's.
func (sw *Sweep) Wait(ctx context.Context) (*spec.SweepResultResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-sw.done:
		return sw.result, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the aggregated outcome, false if the sweep has not
// completed yet.
func (sw *Sweep) Result() (*spec.SweepResultResponse, bool) {
	select {
	case <-sw.done:
		return sw.result, true
	default:
		return nil, false
	}
}

// Cancel requests cancellation of the sweep's remaining work: cells not
// yet submitted are marked canceled without ever reaching the queue, and
// cells whose job this sweep is the ONLY holder of are canceled. A cell
// deduplicated onto a job another submitter also holds — an independent
// client, another sweep — keeps running: canceling a sweep must not reach
// through dedup into work someone else is waiting on. The sweep still
// completes (cancellation is a kind of completion), with those shared
// cells finishing normally.
func (sw *Sweep) Cancel() {
	sw.mu.Lock()
	sw.canceled = true
	var doomed []*Job
	for _, sc := range sw.cells {
		if sc.status != "" || sc.job == nil {
			continue
		}
		select {
		case <-sc.job.done:
			continue // already terminal; the waiter will record it
		default:
		}
		if sc.job.Holders() == 1 {
			doomed = append(doomed, sc.job)
		}
	}
	sw.mu.Unlock()
	for _, j := range doomed {
		j.Cancel()
	}
}

// Status assembles the live wire view: per-cell states (terminal states as
// recorded; live cells reflect their job's queue position) and the derived
// counts. Once the result is published its cells, all terminal, are the
// view.
func (sw *Sweep) Status() *spec.SweepResponse {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	resp := &spec.SweepResponse{
		ID:      sw.id,
		Metric:  sw.metric,
		Tenant:  sw.tenant,
		Created: sw.created.UTC().Format(time.RFC3339Nano),
	}
	if res := sw.result; res != nil {
		resp.Counts, resp.Cells = res.Counts, res.Cells
	} else {
		for _, sc := range sw.cells {
			info := sc.info()
			info.Status = sc.liveStatus()
			switch info.Status {
			case cellQueued:
				resp.Counts.Queued++
			case cellRunning:
				resp.Counts.Running++
			case cellDone:
				resp.Counts.Done++
			case cellFailed:
				resp.Counts.Failed++
			case cellCanceled:
				resp.Counts.Canceled++
			}
			resp.Cells = append(resp.Cells, info)
		}
	}
	select {
	case <-sw.done:
		resp.Status = sw.result.Status
	default:
		if resp.Counts.Running > 0 || resp.Counts.Done > 0 || resp.Counts.Failed > 0 || resp.Counts.Canceled > 0 {
			resp.Status = "running"
		} else {
			resp.Status = "queued"
		}
	}
	return resp
}

// info is the cell's wire record with its recorded status. Callers hold
// the sweep mutex.
func (sc *sweepCell) info() spec.SweepCellInfo {
	return spec.SweepCellInfo{
		JobID:   sc.jobID,
		Graph:   sc.c.Graph,
		Method:  sc.c.Method,
		Epsilon: sc.c.Epsilon,
		Seed:    sc.c.Seed,
		Status:  sc.status,
		Metric:  sc.metric,
		Error:   sc.errMsg,
	}
}

// liveStatus maps a cell to its wire state. Terminal records win; a cell
// whose job finished but whose evaluation has not been recorded yet still
// reports running — the cell's work includes scoring. Callers hold the
// sweep mutex.
func (sc *sweepCell) liveStatus() string {
	if sc.status != "" {
		return sc.status
	}
	if sc.job == nil {
		return cellQueued
	}
	if sc.job.Status() == StatusQueued {
		return cellQueued
	}
	return cellRunning
}

// SubmitSweep validates and expands a sweep spec, registers it, and starts
// its orchestration. Identical grids — the same canonicalized cell-key set
// and evaluation selection, however the axes were spelled — share one
// sweep ID, and a resubmission returns the existing handle: a finished
// sweep answers instantly from its aggregate, an in-flight one is joined.
// Expansion failures (empty axes, an unresolvable graph source, a config
// contradicting its axes) reject the whole sweep with ErrInvalidSpec;
// per-cell failures past expansion are recorded in the completed sweep.
// Expansion generates every dataset axis, so a closed service and a
// dataset cell over the memory cap are refused before it.
func (s *Service) SubmitSweep(sp *spec.SweepSpec) (*Sweep, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	for _, src := range sp.Graphs {
		for _, m := range sp.Methods {
			if err := s.checkDatasetCap(src, m, sp.Config); err != nil {
				return nil, err
			}
		}
	}
	plan, err := sweep.Expand(sp, s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if sw, ok := s.sweeps[plan.ID]; ok {
		s.mu.Unlock()
		return sw, nil
	}
	sw := &Sweep{
		id:       plan.ID,
		metric:   plan.Metric,
		tenant:   sp.Tenant,
		priority: sp.Priority,
		created:  time.Now(),
		svc:      s,
		plan:     plan,
		finished: make(chan struct{}, len(plan.Cells)),
		done:     make(chan struct{}),
	}
	for _, c := range plan.Cells {
		sw.cells = append(sw.cells, &sweepCell{c: c, jobID: JobID(c.Key)})
	}
	s.sweeps[plan.ID] = sw
	s.wg.Add(1)
	s.mu.Unlock()
	go sw.orchestrate()
	return sw, nil
}

// SweepByID returns the live sweep registered under id.
func (s *Service) SweepByID(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// SweepResult returns a completed sweep's aggregate: from the live handle
// when the sweep ran (or is still registered) in this process, else from
// the persisted sweep artifact — the restart path, where the table served
// from disk is byte-identical to the one served at completion.
func (s *Service) SweepResult(id string) (*spec.SweepResultResponse, bool) {
	if sw, ok := s.SweepByID(id); ok {
		if res, done := sw.Result(); done {
			return res, true
		}
		return nil, false
	}
	if s.store != nil {
		return s.store.LoadSweep(id)
	}
	return nil, false
}

// orchestrate runs the sweep to completion: feed cells into the queue in
// plan order (respecting the tenant quota by waiting for in-flight cells
// rather than failing), watch each submitted cell, evaluate completions,
// then aggregate, persist, and publish. Runs on the service WaitGroup, so
// Close waits for in-flight sweeps like it waits for jobs.
func (sw *Sweep) orchestrate() {
	defer sw.svc.wg.Done()
	var waiters sync.WaitGroup
	for _, sc := range sw.cells {
		sw.feedCell(sc, &waiters)
	}
	waiters.Wait()
	sw.complete()
}

// feedCell submits one cell, retrying quota rejections after any other
// cell finishes, and starts its completion watcher. Every failure mode is
// recorded on the cell, never returned — one bad cell must not sink the
// grid.
func (sw *Sweep) feedCell(sc *sweepCell, waiters *sync.WaitGroup) {
	for {
		sw.mu.Lock()
		if sw.canceled {
			sc.status = cellCanceled
			sw.mu.Unlock()
			return
		}
		sw.mu.Unlock()
		c := sc.c
		j, err := sw.svc.submit(c.Key, c.TrainGraph(), c.Prox, c.Config, sw.priority, sw.tenant)
		switch {
		case err == nil:
			sw.mu.Lock()
			sc.job = j
			sw.mu.Unlock()
			waiters.Add(1)
			go sw.watchCell(sc, waiters)
			return
		case errors.Is(err, ErrQuotaExceeded):
			// The sweep's tenant is at its in-flight cap: wait for ANY cell
			// of this sweep to finish (freeing a quota slot) and resubmit.
			// The timeout covers quota held by jobs outside this sweep.
			select {
			case <-sw.finished:
			case <-time.After(20 * time.Millisecond):
			}
		default:
			// ErrInvalidSpec (the method rejected this cell's config against
			// its graph, or the job is over the memory cap) or ErrClosed: a
			// failed cell of a sweep that still completes.
			sw.record(sc, cellFailed, nil, err.Error())
			return
		}
	}
}

// watchCell waits for a submitted cell's job, evaluates the result, and
// records the terminal state. Scoring holds one worker slot, like
// training: an exact StrucEqu scan can outlast the training it scores, and
// unbounded concurrent scans — each holding its result plus O(|V|²)
// distance arrays — would defeat the MaxWorkers bound. Its claim outranks
// every queued job (scorePriority), so results are released promptly.
func (sw *Sweep) watchCell(sc *sweepCell, waiters *sync.WaitGroup) {
	defer waiters.Done()
	res, err := sc.job.Wait(context.Background())
	switch {
	case sc.job.Status() == StatusCanceled:
		sw.record(sc, cellCanceled, nil, "")
	case err != nil:
		sw.record(sc, cellFailed, nil, err.Error())
	default:
		_ = sw.svc.acquire(context.Background(), nil, 1) // never fails: no deadline
		v, everr := sw.evaluate(sc, res)
		sw.svc.release(1)
		if everr != nil {
			sw.record(sc, cellFailed, nil, everr.Error())
			return
		}
		sw.record(sc, cellDone, &v, "")
	}
}

// evaluate scores a cell's result. A panic while scoring — a spill tier
// that failed or closed after training (core.Result.Embedding), an
// embedding that does not fit its graph — fails this cell only: it comes
// back as the cell's error, and its stack goes to the standard logger, as
// Service.run logs a job's.
func (sw *Sweep) evaluate(sc *sweepCell, res *core.Result) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			p := panicx.Recovered(r)
			log.Printf("service: sweep %s cell %s panicked while scoring: %v\n%s", sw.id, sc.jobID, p.Value, p.Stack)
			err = fmt.Errorf("service: scoring panicked: %w", p)
		}
	}()
	return sc.c.Evaluate(res)
}

// record publishes a cell's terminal state and signals the feeder. The
// cell lets go of its job: the metric is all the sweep needs from here on,
// and a held *Job would pin its embedding past the job table's Limits.
func (sw *Sweep) record(sc *sweepCell, status string, metric *float64, errMsg string) {
	sw.mu.Lock()
	sc.status = status
	sc.metric = metric
	sc.errMsg = errMsg
	sc.job = nil
	sw.mu.Unlock()
	sw.finished <- struct{}{}
}

// complete aggregates the terminal cells into the result artifact and
// publishes it. Everything in the result is a deterministic function of
// the plan and the cell outcomes — no timestamps, map iteration, or
// submission-order dependence — which is what makes the persisted JSON
// byte-identical across submissions, worker counts, and restarts.
func (sw *Sweep) complete() {
	sw.mu.Lock()
	values := make(map[experiments.ResultKey]float64, len(sw.cells))
	res := &spec.SweepResultResponse{ID: sw.id, Metric: sw.metric}
	for _, sc := range sw.cells {
		info := sc.info()
		switch sc.status {
		case cellDone:
			res.Counts.Done++
			values[sc.c.Key] = *sc.metric
		case cellFailed:
			res.Counts.Failed++
		case cellCanceled:
			res.Counts.Canceled++
		}
		res.Cells = append(res.Cells, info)
	}
	res.Table = sweep.Aggregate(sw.plan, values)
	if res.Counts.Canceled > 0 {
		res.Status = "canceled"
	} else {
		res.Status = "done"
	}
	// The result is all a finished sweep serves from here on. The plan and
	// the cells hold every cell's measure and training graph, and for
	// linkauc each split's pair lists; the sweep stays in Service.sweeps
	// for the life of the process, so they go.
	sw.result = res
	sw.plan, sw.cells = nil, nil
	sw.mu.Unlock()
	if sw.svc.store != nil {
		// Best-effort persistence, like result artifacts: a failed write
		// degrades restart warmth, never the in-flight response.
		_ = sw.svc.store.SaveSweep(res)
	}
	close(sw.done)
}
