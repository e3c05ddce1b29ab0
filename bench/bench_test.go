package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// reducedTable is the workload table cut down to seconds of work: three
// measured jobs of two epochs each, three read-set jobs, and graphs at a
// twentieth of their size except where the spill tier needs the size to
// engage.
func reducedTable() []workload {
	out := slices.Clone(workloads)
	for i := range out {
		w := &out[i]
		w.maxJobs = 3
		w.rssAfter = min(w.rssAfter, w.maxJobs)
		w.job.maxEpochs = 2
		w.setupJob.maxEpochs = 2
		w.setupJobs = min(w.setupJobs, 3)
		if w.job.memoryBudget == 0 {
			w.job.scale /= 20
			w.setupJob.scale /= 20
		}
	}
	return out
}

// TestWorkloads runs every workload of the reduced table for one second,
// untraced and traced, and requires its output checks to pass and its
// metrics to be exactly the ones BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real jobs")
	}
	t.Setenv("TMPDIR", t.TempDir())
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		slices.Sort(out)
		return out
	}
	var tableNames []string
	for _, w := range workloads {
		tableNames = append(tableNames, w.name)
	}
	slices.Sort(tableNames)
	if got := names(def.Workloads); !slices.Equal(got, tableNames) {
		t.Fatalf("BENCHMARK.json workloads %v, table has %v", got, tableNames)
	}
	wantMetrics := [][]string{names(def.EndToEnd), names(def.PerLayer)}

	for _, w := range reducedTable() {
		for trace := range 2 {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(trace)}
			code := realMain(context.Background(), args, &stdout, &stderr, reducedTable())
			if code != 0 {
				t.Errorf("%s trace %d: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", w.name, trace, err)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || m.Value == math.MaxFloat64 {
					t.Errorf("%s trace %d: %s = %v was not measured", w.name, trace, name, m.Value)
				}
			}
			slices.Sort(got)
			switch {
			case !res.Correct || res.Failed != 0 || res.Attempted < 1:
				t.Errorf("%s trace %d: correct %v, %d of %d failed\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			case !slices.Equal(got, wantMetrics[trace]):
				t.Errorf("%s trace %d: metrics %v, BENCHMARK.json declares %v", w.name, trace, got, wantMetrics[trace])
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q, want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Failures count as +Inf: with 2 of 10 failed the p90 is a failure,
	// the p50 is not.
	withFailures := append(slices.Clone(xs[:8]), failed, failed)
	if got := percentile(withFailures, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 2 of 10 failed = %v, want +Inf", got)
	}
	if got := percentile(withFailures, 0.5); got != 5 {
		t.Errorf("p50 with 2 of 10 failed = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

// TestOpenLoopDueLatency stalls the first of three operations due 10 ms
// apart on one worker: the later two are sent late, and their latency
// counts from when they were due, so the stall is charged to them too.
func TestOpenLoopDueLatency(t *testing.T) {
	const stall = 100 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	lat, late := openLoop(context.Background(), due, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if lat[0] < ms(stall) {
		t.Errorf("stalled op latency %v ms, want >= %v", lat[0], ms(stall))
	}
	for i := 1; i < 3; i++ {
		want := ms(stall - due[i])
		if late[i] < want || lat[i] < want {
			t.Errorf("op %d: late %v ms, latency %v ms, want both >= %v", i, late[i], lat[i], want)
		}
	}
	lat, _ = openLoop(context.Background(), []time.Duration{0}, 1, func(int) error { return context.Canceled })
	if !math.IsInf(lat[0], 1) {
		t.Errorf("failed op latency %v, want +Inf", lat[0])
	}
}
