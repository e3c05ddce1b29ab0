package sweep

// The aggregation half of the package: collapse per-cell metric values
// over the seed axis into the paper's (graph, method, ε) → mean±std table,
// and render that table for humans (markdown, one pivot per graph) and for
// scripts (flat TSV). Everything here is a pure function of the plan and
// the value map, in plan order — the byte layout of the table is part of
// the sweep's determinism contract.

import (
	"fmt"
	"sort"
	"strings"

	"seprivgemb/internal/experiments"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/spec"
)

// Aggregate collapses evaluated cells into the comparison table. values
// maps a cell's deduplication key to its metric value; cells absent from
// the map (failed, canceled) are excluded, so a row's N reports how many
// seeds actually contributed and a (graph, method, ε) group with no
// surviving seeds is omitted rather than reported as a fabricated zero.
// Rows follow plan order — graph-major, then method, then epsilon — which
// is the paper's table shape and is what makes the JSON encoding
// byte-stable.
func Aggregate(p *Plan, values map[experiments.ResultKey]float64) spec.SweepTable {
	type group struct {
		graph   string
		method  string
		epsilon float64
	}
	byGroup := make(map[group][]float64)
	order := make([]group, 0)
	for _, c := range p.Cells {
		gkey := group{c.Graph, c.Method, c.Epsilon}
		if _, seen := byGroup[gkey]; !seen {
			byGroup[gkey] = nil
			order = append(order, gkey)
		}
		if v, ok := values[c.Key]; ok {
			byGroup[gkey] = append(byGroup[gkey], v)
		}
	}
	t := spec.SweepTable{Metric: p.Metric}
	for _, gkey := range order {
		vals := byGroup[gkey]
		if len(vals) == 0 {
			continue
		}
		t.Rows = append(t.Rows, spec.SweepTableRow{
			Graph:   gkey.graph,
			Method:  gkey.method,
			Epsilon: gkey.epsilon,
			Mean:    mathx.Mean(vals),
			Std:     mathx.SampleStdDev(vals),
			N:       len(vals),
		})
	}
	return t
}

// RenderTSV writes the table flat — one row per (graph, method, ε) group
// with a header line — for scripts and spreadsheets.
func RenderTSV(t spec.SweepTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph\tmethod\tepsilon\t%s_mean\t%s_std\tn\n", t.Metric, t.Metric)
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s\t%s\t%g\t%.6f\t%.6f\t%d\n", r.Graph, r.Method, r.Epsilon, r.Mean, r.Std, r.N)
	}
	return b.String()
}

// RenderMarkdown writes the table the way the paper prints it: one pivot
// per graph, methods down the rows, epsilons across the columns, each cell
// "mean±std". Methods keep their order of first appearance in t.Rows, so a
// caller that relabels and concatenates rows controls the legend order
// (Aggregate's rows are already method-sorted within each graph). Groups
// missing from the table (every seed failed) render as "—".
func RenderMarkdown(t spec.SweepTable) string {
	type pivotKey struct {
		method  string
		epsilon float64
	}
	graphs := make([]string, 0)
	methodsOf := make(map[string][]string)
	epsOf := make(map[string][]float64)
	cells := make(map[string]map[pivotKey]spec.SweepTableRow)
	for _, r := range t.Rows {
		if cells[r.Graph] == nil {
			graphs = append(graphs, r.Graph)
			cells[r.Graph] = make(map[pivotKey]spec.SweepTableRow)
		}
		cells[r.Graph][pivotKey{r.Method, r.Epsilon}] = r
		methodsOf[r.Graph] = appendUniqueString(methodsOf[r.Graph], r.Method)
		epsOf[r.Graph] = appendUniqueFloat(epsOf[r.Graph], r.Epsilon)
	}
	var b strings.Builder
	for _, g := range graphs {
		eps := epsOf[g]
		sort.Float64s(eps)
		ms := methodsOf[g]
		fmt.Fprintf(&b, "### %s (%s)\n\n", g, t.Metric)
		b.WriteString("| method |")
		for _, e := range eps {
			fmt.Fprintf(&b, " ε=%g |", e)
		}
		b.WriteString("\n|---|")
		for range eps {
			b.WriteString("---|")
		}
		b.WriteString("\n")
		for _, m := range ms {
			fmt.Fprintf(&b, "| %s |", m)
			for _, e := range eps {
				if r, ok := cells[g][pivotKey{m, e}]; ok {
					fmt.Fprintf(&b, " %.4f±%.4f |", r.Mean, r.Std)
				} else {
					b.WriteString(" — |")
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func appendUniqueString(in []string, v string) []string {
	for _, x := range in {
		if x == v {
			return in
		}
	}
	return append(in, v)
}

func appendUniqueFloat(in []float64, v float64) []float64 {
	for _, x := range in {
		if x == v {
			return in
		}
	}
	return append(in, v)
}
