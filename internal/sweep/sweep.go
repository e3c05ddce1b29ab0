// Package sweep turns one declarative SweepSpec — the paper's comparison
// grid of (graph × method × ε × seed) cells — into a deterministic
// execution plan the service layer can orchestrate: a canonically ordered
// cell list, each cell a resolved job — training graph, lazy measure,
// config and deduplication key — plus the per-cell evaluation and the
// aggregation into the paper-style (graph, method, ε) → mean±std table.
//
// The package is deliberately free of any queueing or transport concern:
// it never submits a job, never holds a lock, and depends only on the
// spec/eval/experiments contracts. internal/service owns the orchestration
// (SubmitSweep) and hands this package a Resolver, so graph sources come
// from the very same dataset memo the job submissions hit, and each cell
// is resolved by the same function that resolves a submitted JobSpec.
//
// Determinism is the load-bearing property end to end:
//
//   - Axes are canonicalized (methods resolved and sorted, epsilons and
//     seeds sorted, duplicate cells dropped), so two specs naming one
//     grid in different orders expand to the SAME ordered cell list.
//   - The sweep ID is a pure function of the canonicalized cell-key set
//     and the evaluation selection — resubmitting a sweep, over any
//     transport, lands on the same ID.
//   - Evaluation draws any randomness (StrucEqu pair sampling, the
//     linkauc split) from the cell seed, never from a shared stream, so
//     a cell's metric value depends only on its key.
//   - Aggregation walks cells in plan order and seeds in sorted order,
//     so the table — and its JSON encoding — is byte-identical across
//     submissions, worker counts, and process restarts.
package sweep

import (
	"fmt"
	"sort"

	"seprivgemb/internal/core"
	"seprivgemb/internal/datasets"
	"seprivgemb/internal/eval"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/mathx"
	"seprivgemb/internal/methods"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/xrand"
)

// Resolver is the service's resolution. ResolveGraph turns a graph source
// into a live graph (datasets through the service's memo, so expanding a
// sweep warms exactly the cache its cells read). ResolveJob turns a
// method, a live graph, a measure name and a wire config into the lazy
// measure, the clamped config and the deduplication key the job is
// submitted with.
type Resolver interface {
	ResolveGraph(src spec.GraphSource) (*graph.Graph, error)
	ResolveJob(method string, g *graph.Graph, measure string, cs spec.ConfigSpec) (proximity.Proximity, core.Config, experiments.ResultKey, error)
}

// Cell is one grid point: the axes that name it, the resolved job it
// submits (training graph, measure, config and deduplication key, so the
// sweep ID exists before any job does), and the private evaluation state
// (the scoring graph, and for linkauc the held-out split).
type Cell struct {
	// Graph is the cell's graph label (stable, human-readable; the table's
	// row group).
	Graph string
	// Method is the canonical method name.
	Method string
	// Epsilon is the cell's privacy budget.
	Epsilon float64
	// Seed is the cell's training seed.
	Seed uint64
	// Key is the deduplication key of the cell's job; Prox and Config are
	// the measure and config it trains with on TrainGraph. The Resolver
	// computed all three, and the service submits them as they are.
	Key    experiments.ResultKey
	Prox   proximity.Proximity
	Config core.Config

	g           *graph.Graph    // the graph the metric scores against
	split       *eval.LinkSplit // linkauc only: the held-out links
	metric      string
	samplePairs int
}

// Plan is an expanded, canonicalized sweep: the ordered cell list and the
// axes that generated it.
type Plan struct {
	// ID is the deterministic sweep identifier: "s" + 16 hex digits of an
	// FNV-1a digest over the evaluation selection and the canonicalized
	// cell-key sequence (see DESIGN.md §13 for the exact preimage).
	ID string
	// Metric is the canonical metric name shared by every cell.
	Metric string
	// Graphs, Methods, Epsilons, Seeds are the canonicalized axes, in the
	// order cells iterate them (graph-major, then method, epsilon, seed).
	Graphs   []string
	Methods  []string
	Epsilons []float64
	Seeds    []uint64
	// Cells is the grid in canonical order.
	Cells []*Cell
}

// graphAxis is one canonicalized graph-axis entry.
type graphAxis struct {
	label string
	g     *graph.Graph
}

// Expand resolves a validated SweepSpec into its execution plan. Graph
// sources that fail to resolve (unknown dataset, malformed inline edges,
// missing file) fail the expansion — the axis itself is broken, so there
// is no honest grid to run; per-cell failures past this point (a method
// rejecting its config, a training error) are the orchestrator's to
// record cell by cell.
func Expand(sp *spec.SweepSpec, r Resolver) (*Plan, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	metric := sp.Eval.MetricName()

	// Canonicalize the graph axis: resolve every source, label it, order
	// by label, and drop duplicate labels (the same source named twice is
	// one axis entry, not a double-counted row group).
	axes := make([]graphAxis, 0, len(sp.Graphs))
	seenLabel := make(map[string]bool)
	for i := range sp.Graphs {
		g, err := r.ResolveGraph(sp.Graphs[i])
		if err != nil {
			return nil, fmt.Errorf("sweep graph %d: %w", i, err)
		}
		label := GraphLabel(sp.Graphs[i], g)
		if seenLabel[label] {
			continue
		}
		seenLabel[label] = true
		axes = append(axes, graphAxis{label: label, g: g})
	}
	sort.Slice(axes, func(i, j int) bool { return axes[i].label < axes[j].label })

	// Canonicalize the scalar axes: resolve, sort, dedup.
	mnames := make([]string, 0, len(sp.Methods))
	seenM := make(map[string]bool)
	for _, m := range sp.Methods {
		cn, err := methods.Canonical(m)
		if err != nil {
			return nil, err // Validate precludes this
		}
		if !seenM[cn] {
			seenM[cn] = true
			mnames = append(mnames, cn)
		}
	}
	sort.Strings(mnames)
	epsilons := dedupSortedFloats(sp.Epsilons)
	seeds := dedupSortedSeeds(sp.Seeds)

	plan := &Plan{
		Metric:   metric,
		Methods:  mnames,
		Epsilons: epsilons,
		Seeds:    seeds,
	}
	for _, ax := range axes {
		plan.Graphs = append(plan.Graphs, ax.label)
	}

	for _, ax := range axes {
		// The linkauc split depends on (graph, seed) only — every method
		// and epsilon of a (graph, seed) pair trains on the SAME retained
		// edges and is scored on the SAME held-out links, which is what
		// makes the columns of one table row comparable.
		splits := make(map[uint64]*eval.LinkSplit, len(seeds))
		if metric == spec.MetricLinkAUC {
			for _, seed := range seeds {
				split, err := eval.SplitLinkPrediction(ax.g, sp.Eval.TestFrac(), xrand.New(seed^0x5eed))
				if err != nil {
					return nil, fmt.Errorf("sweep graph %s: link split: %w", ax.label, err)
				}
				splits[seed] = split
			}
		}
		for _, m := range mnames {
			for _, eps := range epsilons {
				for _, seed := range seeds {
					c, err := buildCell(sp, r, ax, m, eps, seed, splits[seed])
					if err != nil {
						return nil, err
					}
					plan.Cells = append(plan.Cells, c)
				}
			}
		}
	}
	plan.ID = planID(sp, plan)
	return plan, nil
}

// buildCell resolves one grid point: the base config with the cell's ε
// and seed, trained on the source graph for strucequ and on the split's
// retained edges for linkauc — the paper's protocol. Every cell of one
// (graph, seed) shares that split's one train graph.
func buildCell(sp *spec.SweepSpec, r Resolver, ax graphAxis, method string, eps float64, seed uint64, split *eval.LinkSplit) (*Cell, error) {
	c := &Cell{
		Graph:       ax.label,
		Method:      method,
		Epsilon:     eps,
		Seed:        seed,
		g:           ax.g,
		split:       split,
		metric:      sp.Eval.MetricName(),
		samplePairs: sp.Eval.SamplePairs,
	}
	cs := sp.Config
	cs.Epsilon = eps
	cs.Seed = seed
	var err error
	c.Prox, c.Config, c.Key, err = r.ResolveJob(method, c.TrainGraph(), sp.Proximity, cs)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// TrainGraph is the graph the cell's job trains on: the split's retained
// edges for linkauc, the source graph otherwise.
func (c *Cell) TrainGraph() *graph.Graph {
	if c.split != nil {
		return c.split.Train
	}
	return c.g
}

// Evaluate scores a completed cell's training result. Non-finite metric
// values (a degenerate Pearson on a tiny graph) are reported as 0 — a
// table cell must be a JSON-encodable number.
func (c *Cell) Evaluate(res *core.Result) (float64, error) {
	if res == nil || res.Model == nil {
		return 0, fmt.Errorf("sweep: cell %s/%s eps=%g seed=%d finished without an embedding",
			c.Graph, c.Method, c.Epsilon, c.Seed)
	}
	emb := res.Embedding()
	switch c.metric {
	case spec.MetricLinkAUC:
		score := func(u, v int) float64 { return mathx.Dot(emb.Row(u), emb.Row(v)) }
		return finiteOr(eval.LinkAUC(c.split, score), 0), nil
	default: // spec.MetricStrucEqu
		n := c.g.NumNodes()
		if c.samplePairs > 0 && n*(n-1)/2 > c.samplePairs {
			return finiteOr(eval.StrucEquSampled(c.g, emb, c.samplePairs, xrand.New(c.Seed^0x5e)), 0), nil
		}
		return finiteOr(eval.StrucEqu(c.g, emb), 0), nil
	}
}

// GraphLabel names a graph source for table rows and cell listings:
// stable, human-readable, and unique per distinct source. Dataset scales
// canonicalize through the dataset's default, so "scale 0" and "scale
// <the default>" — the same graph — carry the same label and collapse to
// one axis entry.
func GraphLabel(src spec.GraphSource, g *graph.Graph) string {
	switch {
	case src.Dataset != nil:
		scale := src.Dataset.Scale
		if scale <= 0 {
			if sp, err := datasets.Get(src.Dataset.Name); err == nil {
				scale = sp.DefaultScale
			}
		}
		return fmt.Sprintf("%s@%g/%d", src.Dataset.Name, scale, src.Dataset.Seed)
	case src.File != nil:
		return "file:" + src.File.Path
	default:
		return fmt.Sprintf("inline-%08x", uint32(g.Fingerprint()>>32))
	}
}

// planID digests the canonicalized plan into the deterministic sweep ID.
// Preimage, in order: the metric name and its parameters (test fraction
// only for linkauc, sample-pair budget only for strucequ — the knob the
// other metric ignores must not split IDs), then every cell's label axes
// and full deduplication key in canonical cell order. Any change to this
// preimage is a wire-compatibility break: persisted sweep artifacts are
// named by the ID.
func planID(sp *spec.SweepSpec, p *Plan) string {
	h := mathx.NewFNV64()
	hashString := func(s string) {
		for _, b := range []byte(s) {
			h.Word(uint64(b))
		}
		h.Word('|')
	}
	hashString(p.Metric)
	switch p.Metric {
	case spec.MetricLinkAUC:
		hashString(fmt.Sprintf("frac=%g", sp.Eval.TestFrac()))
	default:
		hashString(fmt.Sprintf("pairs=%d", sp.Eval.SamplePairs))
	}
	for _, c := range p.Cells {
		hashString(c.Graph)
		hashString(c.Key.Method)
		h.Word(c.Key.Graph)
		hashString(c.Key.Proximity)
		h.Word(c.Key.Config)
		h.Word(c.Seed)
	}
	return fmt.Sprintf("s%016x", h.Sum())
}

func dedupSortedFloats(in []float64) []float64 {
	out := append([]float64(nil), in...)
	sort.Float64s(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

func dedupSortedSeeds(in []uint64) []uint64 {
	out := append([]uint64(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// finiteOr maps a non-finite metric value on a degenerate cell to
// fallback, never a JSON-breaking NaN.
func finiteOr(v, fallback float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return fallback
	}
	return v
}
