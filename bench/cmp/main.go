// Command cmp compares two sets of benchmark reports — the files the
// benchmark writes with --out — against the bounds in BENCHMARK.json:
//
//	cd bench && go run ./cmp [-spec ../BENCHMARK.json] A.json... -- B.json...
//
// Reports are grouped by workload and trace mode. For every metric it
// prints each side's median and quartiles (Python's
// statistics.quantiles, exclusive method). An end-to-end metric whose B
// median is worse than A's by more than its bound, a share of A's median,
// is a regression. Where either side's spread — the distance between its
// quartiles over its median — exceeds the bound, the metric is
// unresolved instead, unless every B run beats every A run. Per-layer
// metrics and the reports' informational numbers, such as wall-clock
// latencies, have no bound and are only printed. cmp exits 1 if any
// metric regressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchSpec is the part of BENCHMARK.json cmp reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// report is the part of a benchmark report cmp reads.
type report struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Info map[string]float64 `json:"info"`
}

type group struct {
	workload string
	trace    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "../BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: cmp [-spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fmt.Fprintf(stderr, "cmp: %v\n", err)
		return 2
	}
	a, err := load(rest[:sep])
	if err == nil {
		var b map[group][]report
		if b, err = load(rest[sep+1:]); err == nil {
			return compare(stdout, spec, a, b)
		}
	}
	fmt.Fprintf(stderr, "cmp: %v\n", err)
	return 2
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// load reads report files grouped by workload and trace mode.
func load(paths []string) (map[group][]report, error) {
	out := make(map[group][]report)
	for _, p := range paths {
		var r report
		if err := readJSON(p, &r); err != nil {
			return nil, err
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a benchmark report", p)
		}
		g := group{r.Workload, r.Trace}
		out[g] = append(out[g], r)
	}
	return out, nil
}

// compare prints one row per metric of every group both sides ran and
// returns 1 if any end-to-end metric regressed.
func compare(w io.Writer, spec benchSpec, a, b map[group][]report) int {
	var groups []group
	for g := range a {
		if _, ok := b[g]; ok {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return groups[i].trace < groups[j].trace
	})
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1 q3] (n)\tB median [q1 q3] (n)\tchange\tbound\tverdict")
	regressions, unresolved := 0, 0
	for _, g := range groups {
		metrics := spec.EndToEnd
		if g.trace == 1 {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			av, bv := values(a[g], m.Name), values(b[g], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			as, bs := summarize(av), summarize(bv)
			change := (bs.median - as.median) / as.median
			verdict, bound := "", "-"
			if g.trace == 0 {
				verdict = judge(m, av, bv, as, bs)
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				switch verdict {
				case "REGRESSION":
					regressions++
				case "unresolved":
					unresolved++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", g.workload, m.Name, as, bs, 100*change, bound, verdict)
		}
		for _, k := range infoKeys(a[g]) {
			av, bv := infoValues(a[g], k), infoValues(b[g], k)
			if len(bv) == 0 {
				continue
			}
			as, bs := summarize(av), summarize(bv)
			fmt.Fprintf(tw, "%s\tinfo %s\t%s\t%s\t%+.1f%%\t-\t\n", g.workload, k, as, bs, 100*(bs.median-as.median)/as.median)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

func values(rs []report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// infoKeys returns the sorted informational numbers the reports carry,
// such as the wall-clock latencies, which have no bound.
func infoKeys(rs []report) []string {
	seen := make(map[string]bool)
	for _, r := range rs {
		for k := range r.Info {
			seen[k] = true
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

func infoValues(rs []report, key string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Info[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// judge classifies B against A for one end-to-end metric.
func judge(m metricSpec, av, bv []float64, as, bs summary) string {
	// worse is how much worse B's median is, as a share of A's.
	worse := (bs.median - as.median) / as.median
	if m.Better == "higher" {
		worse = -worse
	}
	if max(as.spread(), bs.spread()) > m.Bound {
		if allBetter(m, av, bv) {
			return "better"
		}
		return "unresolved"
	}
	if worse > m.Bound {
		return "REGRESSION"
	}
	return "ok"
}

// allBetter reports whether every B value beats every A value.
func allBetter(m metricSpec, av, bv []float64) bool {
	if m.Better == "higher" {
		return slices.Min(bv) > slices.Max(av)
	}
	return slices.Max(bv) < slices.Min(av)
}

type summary struct {
	median, q1, q3 float64
	n              int
}

func (s summary) spread() float64 { return (s.q3 - s.q1) / math.Abs(s.median) }

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", s.median, s.q1, s.q3, s.n)
}

func summarize(xs []float64) summary {
	q := quartiles(xs)
	return summary{median: median(xs), q1: q[0], q3: q[2], n: len(xs)}
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default exclusive method);
// a single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out
}
