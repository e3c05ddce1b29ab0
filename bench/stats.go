package main

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// failed is the latency recorded for an operation that failed or was
// refused: it counts against every percentile it reaches.
var failed = math.Inf(1)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least ⌈q·n⌉ samples at or below it. NaN when xs
// is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// closedLoop runs `clients` goroutines that each start their next
// operation as soon as the previous one returns, until the deadline
// passes or `limit` operations have started (0: no limit). Operations are
// numbered from 0 in start order. It returns how many started and the
// time from the first start until the last one finished, so an operation
// still running at the deadline is counted whole.
func closedLoop(ctx context.Context, clients, limit int, deadline time.Time, do func(i int)) (int, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	n := int(next.Load())
	if limit > 0 && n > limit {
		n = limit
	}
	return n, time.Since(start)
}

// openLoop runs operation i at start+due[i] whether or not earlier ones
// have finished: `workers` goroutines take operations in order and sleep
// until each is due. due must be sorted. Latency is measured from the due
// time, so a stall is also charged to every operation it delays; late is
// how long after its due time each operation was actually sent.
// Operations not started before ctx ends are reported as failed.
func openLoop(ctx context.Context, due []time.Duration, workers int, do func(i int) error) (lat, late []float64) {
	lat = make([]float64, len(due))
	late = make([]float64, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if ctx.Err() != nil || !sleepUntil(ctx, at) {
					lat[i], late[i] = failed, 0
					continue
				}
				sent := time.Now()
				err := do(i)
				end := time.Now()
				late[i] = ms(sent.Sub(at))
				lat[i] = ms(end.Sub(at))
				if err != nil {
					lat[i] = failed
				}
			}
		}()
	}
	wg.Wait()
	return lat, late
}

// sleepUntil blocks until t or until ctx ends, reporting whether t came.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// schedule returns the due offsets of a fixed-rate stream: n operations,
// the k-th due at offset + k/rate.
func schedule(rate float64, window, offset time.Duration) []time.Duration {
	var out []time.Duration
	step := time.Duration(float64(time.Second) / rate)
	for t := offset; t < window; t += step {
		out = append(out, t)
	}
	return out
}
