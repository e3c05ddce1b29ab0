// Command bench is the end-to-end benchmark of the seprivd serving stack.
// It stands the stack up in process — service.New behind server.New on a
// loopback listener, over a temporary artifact directory — and drives it
// through its public HTTP API with one workload per run:
//
//	bash bench/run.sh --workload train-dataset --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics. With --trace 1 it
// serves fewer jobs and reads and replays each one in process, calling
// each layer's public functions in the order the service does, and
// reports per-layer metrics instead. Every run checks the served outputs
// and exits 1 if any check fails. The last line of standard output is the
// JSON result; README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr, workloads)
	stop()
	os.Exit(code)
}

// e2eMetrics and layerMetricNames are the metrics a run reports with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names.
var e2eMetrics = []string{"setup_s", "cpu_ms_per_op", "peak_rss_mb"}

var layerMetricNames = []string{
	"server.submit_ms", "spec.decode_ms", "service.resolve_ms", "service.queue_ms",
	"experiments.memo_proximity_ms", "experiments.memo_hits", "experiments.memo_misses",
	"core.subgraphs_ms", "proximity.weight_fill_ms", "proximity.at_calls",
	"core.train_ms", "core.gradients_ms", "core.reduce_ms", "core.update_ms",
	"core.train_dense_ms", "mathx.spill_overhead", "mathx.spill_resident_mb",
	"service.store_save_ms", "service.artifact_mb",
	"service.load_rows_ms", "service.load_rows_by_id_ms", "server.rows_ms", "server.rows_self_ms",
	"stream.events_per_job", "replica.cross_frac", "service.dedup_ratio",
	"trace.coverage", "trace.job_ms",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what --out writes: the result plus what produced it.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Host     host               `json:"host"`
	Problems []string           `json:"problems,omitempty"`
	Info     map[string]float64 `json:"info,omitempty"`
	result
}

// run accumulates one benchmark run's metrics, operation counts, output
// check failures, and informational numbers. Safe for concurrent use.
type run struct {
	mu        sync.Mutex
	metrics   map[string]metric
	info      map[string]float64
	problems  []string
	attempted int64
	failed    int64
}

func newRun() *run {
	return &run{metrics: make(map[string]metric), info: make(map[string]float64)}
}

// set records a metric. A value no operation measured — NaN or ±Inf,
// which JSON cannot carry — reads as the largest float, the worst value
// of a lower-is-better metric.
func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = math.MaxFloat64
	}
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// note records an informational number for the report and stderr.
func (r *run) note(name string, v float64) {
	r.mu.Lock()
	r.info[name] = v
	r.mu.Unlock()
}

// op counts an attempted operation and, when err is non-nil, a failure.
// The workloads are chosen so that nothing fails, so a failure also fails
// the run's checks; only the first few are described.
func (r *run) op(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= maxReported {
			r.problems = append(r.problems, err.Error())
		}
	}
	r.mu.Unlock()
}

// maxReported bounds the failures described in a run's problems.
const maxReported = 10

// problem records a failed output check.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer, table []workload) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay instead of end-to-end metrics")
	out := fs.String("out", "", "also write the report, with host information, to this file")
	spansOut := fs.String("spans", "", "with --trace 1, write every span and a self-time summary to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range table {
		if table[i].name == *name {
			w = &table[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "bench: --seconds %d, want at least 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: --trace %d, want 0 or 1\n", *trace)
		return 2
	}

	r := newRun()
	window := time.Duration(*seconds) * time.Second
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var err error
	if w.serving() {
		err = runServe(ctx, r, *w, *seed, window, tr)
	} else {
		err = runTrain(ctx, r, *w, *seed, window, tr)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	want := e2eMetrics
	if tr != nil {
		tr.layerMetrics(r)
		want = layerMetricNames
		if *spansOut != "" {
			if err := tr.writeSpans(*spansOut); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, m := range want {
		v, ok := r.metrics[m]
		if !ok {
			r.problem("metric %s was not measured", m)
			continue
		}
		res.Metrics[m] = v
	}
	res.Correct = len(r.problems) == 0
	res.Attempted = max(res.Attempted, 1)

	for _, p := range r.problems {
		fmt.Fprintf(stderr, "bench: CHECK FAILED: %s\n", p)
	}
	var infos []string
	for k := range r.info {
		infos = append(infos, k)
	}
	sort.Strings(infos)
	for _, k := range infos {
		fmt.Fprintf(stderr, "info %s %g\n", k, r.info[k])
	}
	for _, m := range want {
		if v, ok := res.Metrics[m]; ok {
			fmt.Fprintf(stdout, "%s %.6g %s\n", m, v.Value, v.Unit)
		}
	}
	if *out != "" {
		rep := report{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
			Host: hostInfo(), Problems: r.problems, Info: r.info, result: res}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing report: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
