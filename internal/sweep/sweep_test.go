package sweep

import (
	"fmt"
	"strings"
	"testing"

	"seprivgemb/internal/core"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/graph"
	"seprivgemb/internal/proximity"
	"seprivgemb/internal/spec"
)

// inlineResolver resolves inline sources only — enough for plan-level
// tests, which never touch datasets or files — and keys each job by its
// method, graph, measure and config as the service does (the service's
// tests pin a cell's key to its submitted job's).
type inlineResolver struct{}

func (inlineResolver) ResolveJob(method string, g *graph.Graph, measure string, cs spec.ConfigSpec) (proximity.Proximity, core.Config, experiments.ResultKey, error) {
	cfg, err := cs.CoreConfig()
	if err != nil {
		return nil, cfg, experiments.ResultKey{}, err
	}
	prox, err := proximity.ByName(measure, g)
	if err != nil {
		return nil, cfg, experiments.ResultKey{}, err
	}
	return prox, cfg, experiments.ResultKey{Method: method, Graph: g.Fingerprint(), Proximity: prox.Name(), Config: cfg.Hash()}, nil
}

func (inlineResolver) ResolveGraph(src spec.GraphSource) (*graph.Graph, error) {
	if src.Inline == nil {
		return nil, fmt.Errorf("test resolver handles inline sources only")
	}
	b := graph.NewBuilder(src.Inline.Nodes)
	for _, e := range src.Inline.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// ringSource is a 12-node ring with 4 chords: 16 edges, enough for a 0.10
// link split and distinct from a second graph's fingerprint.
func ringSource() spec.GraphSource {
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
		{8, 9}, {9, 10}, {10, 11}, {0, 11}, {0, 6}, {1, 7}, {2, 8}, {3, 9},
	}
	return spec.GraphSource{Inline: &spec.InlineSource{Nodes: 12, Edges: edges}}
}

func starSource() spec.GraphSource {
	edges := make([][2]int, 0, 11)
	for i := 1; i < 12; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return spec.GraphSource{Inline: &spec.InlineSource{Nodes: 12, Edges: edges}}
}

func baseSweep() *spec.SweepSpec {
	return &spec.SweepSpec{
		Graphs:    []spec.GraphSource{ringSource()},
		Methods:   []string{"sepriv", "gap"},
		Epsilons:  []float64{0.5, 1.0},
		Seeds:     []uint64{1, 2},
		Proximity: "degree",
		Config:    spec.ConfigSpec{Dim: 8, BatchSize: 8, MaxEpochs: 2},
	}
}

func TestExpandCellCountAndOrder(t *testing.T) {
	sp := baseSweep()
	sp.Graphs = append(sp.Graphs, starSource())
	p, err := Expand(sp, inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Cells), 2*2*2*2; got != want {
		t.Fatalf("expanded to %d cells, want %d", got, want)
	}
	// Canonical order: graph-major (sorted by label), then method, then
	// epsilon, then seed — the table's row order.
	var prev *Cell
	for _, c := range p.Cells {
		if prev != nil {
			a := [2]string{prev.Graph, prev.Method}
			b := [2]string{c.Graph, c.Method}
			switch {
			case a[0] != b[0]:
				if a[0] > b[0] {
					t.Fatalf("graphs out of order: %q after %q", b[0], a[0])
				}
			case a[1] != b[1]:
				if a[1] > b[1] {
					t.Fatalf("methods out of order: %q after %q", b[1], a[1])
				}
			case prev.Epsilon != c.Epsilon:
				if prev.Epsilon > c.Epsilon {
					t.Fatalf("epsilons out of order: %g after %g", c.Epsilon, prev.Epsilon)
				}
			case prev.Seed >= c.Seed:
				t.Fatalf("seeds out of order: %d after %d", c.Seed, prev.Seed)
			}
		}
		prev = c
	}
	// Every cell key must be distinct — the axes vary epsilon and seed,
	// both of which are inside Config.Hash.
	seen := make(map[experiments.ResultKey]bool)
	for _, c := range p.Cells {
		if seen[c.Key] {
			t.Fatalf("duplicate cell key %+v", c.Key)
		}
		seen[c.Key] = true
	}
}

func TestExpandIDOrderInsensitive(t *testing.T) {
	a, err := Expand(baseSweep(), inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	// Same grid, every axis reordered and with duplicates.
	shuffled := baseSweep()
	shuffled.Methods = []string{"gap", "sepriv", "gap"}
	shuffled.Epsilons = []float64{1.0, 0.5, 1.0}
	shuffled.Seeds = []uint64{2, 1, 1}
	b, err := Expand(shuffled, inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("reordered axes changed the sweep ID: %s vs %s", a.ID, b.ID)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("reordered axes changed the cell count: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i].Key != b.Cells[i].Key {
			t.Fatalf("cell %d key differs across orderings", i)
		}
	}
	// A genuinely different grid must get a different ID.
	widened := baseSweep()
	widened.Epsilons = []float64{0.5, 1.0, 2.0}
	c, err := Expand(widened, inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatalf("widened grid shares ID %s with the base grid", a.ID)
	}
	// ...and so must the same grid under the other metric.
	relabeled := baseSweep()
	relabeled.Eval.Metric = spec.MetricLinkAUC
	d, err := Expand(relabeled, inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	if d.ID == a.ID {
		t.Fatalf("linkauc grid shares ID %s with the strucequ grid", a.ID)
	}
}

func TestExpandLinkAUCCellsTrainOnSplit(t *testing.T) {
	sp := baseSweep()
	sp.Eval.Metric = spec.MetricLinkAUC
	p, err := Expand(sp, inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := inlineResolver{}.ResolveGraph(ringSource())
	bySeed := make(map[uint64][]*graph.Graph)
	for _, c := range p.Cells {
		g := c.TrainGraph()
		if g == nil || g != c.split.Train {
			t.Fatalf("linkauc cell %s/%s does not train on its split graph", c.Graph, c.Method)
		}
		if g.NumEdges() >= full.NumEdges() {
			t.Fatalf("cell train graph has %d edges, want fewer than the full %d", g.NumEdges(), full.NumEdges())
		}
		if g.Fingerprint() != c.Key.Graph {
			t.Fatalf("cell train graph fingerprint %016x disagrees with its key %016x", g.Fingerprint(), c.Key.Graph)
		}
		if c.Prox.NumNodes() != g.NumNodes() || c.Key.Proximity != c.Prox.Name() || c.Key.Config != c.Config.Hash() {
			t.Fatalf("cell %s/%s measure or config disagrees with its key %+v", c.Graph, c.Method, c.Key)
		}
		bySeed[c.Seed] = append(bySeed[c.Seed], g)
	}
	// Every cell of one (graph, seed) — all methods, all epsilons — must
	// train on the SAME retained edges, or the table's columns would not
	// be comparable; they share the split's one graph.
	for seed, gs := range bySeed {
		for _, g := range gs {
			if g.Fingerprint() != gs[0].Fingerprint() || g != gs[0] {
				t.Fatalf("seed %d cells train on different splits", seed)
			}
		}
	}
}

func TestExpandRejects(t *testing.T) {
	cases := map[string]func(*spec.SweepSpec){
		"no graphs":      func(s *spec.SweepSpec) { s.Graphs = nil },
		"no methods":     func(s *spec.SweepSpec) { s.Methods = nil },
		"unknown method": func(s *spec.SweepSpec) { s.Methods = []string{"word2vec"} },
		"no epsilons":    func(s *spec.SweepSpec) { s.Epsilons = nil },
		"bad epsilon":    func(s *spec.SweepSpec) { s.Epsilons = []float64{1, -2} },
		"no seeds":       func(s *spec.SweepSpec) { s.Seeds = nil },
		"config epsilon": func(s *spec.SweepSpec) { s.Config.Epsilon = 1 },
		"config seed":    func(s *spec.SweepSpec) { s.Config.Seed = 3 },
		"bad metric":     func(s *spec.SweepSpec) { s.Eval.Metric = "accuracy" },
		"bad frac":       func(s *spec.SweepSpec) { s.Eval.TestFraction = 1.5 },
	}
	for name, mutate := range cases {
		sp := baseSweep()
		mutate(sp)
		if _, err := Expand(sp, inlineResolver{}); err == nil {
			t.Errorf("%s: expansion succeeded, want error", name)
		}
	}
}

func TestAggregate(t *testing.T) {
	sp := baseSweep()
	p, err := Expand(sp, inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[experiments.ResultKey]float64)
	for _, c := range p.Cells {
		if c.Method == "gap" && c.Epsilon == 1.0 {
			continue // both seeds of this group "failed"
		}
		if c.Method == "sepriv" && c.Epsilon == 0.5 && c.Seed == 2 {
			continue // one seed of this group failed
		}
		values[c.Key] = c.Epsilon * 10 * float64(c.Seed)
	}
	tab := Aggregate(p, values)
	if tab.Metric != spec.MetricStrucEqu {
		t.Fatalf("table metric %q", tab.Metric)
	}
	// 4 groups, one fully failed → 3 rows.
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(tab.Rows), tab.Rows)
	}
	rowFor := func(method string, eps float64) spec.SweepTableRow {
		for _, r := range tab.Rows {
			if r.Method == method && r.Epsilon == eps {
				return r
			}
		}
		t.Fatalf("no row for %s eps=%g", method, eps)
		return spec.SweepTableRow{}
	}
	// gap@0.5: seeds 1,2 → values 5, 10 → mean 7.5, n 2.
	if r := rowFor("gap", 0.5); r.Mean != 7.5 || r.N != 2 || r.Std == 0 {
		t.Fatalf("gap@0.5 row: %+v", r)
	}
	// sepriv@0.5: only seed 1 survived → mean 5, std 0 (not NaN), n 1.
	if r := rowFor("sepriv", 0.5); r.Mean != 5 || r.N != 1 || r.Std != 0 {
		t.Fatalf("sepriv@0.5 row: %+v", r)
	}
	for _, r := range tab.Rows {
		if r.Method == "gap" && r.Epsilon == 1.0 {
			t.Fatalf("fully-failed group rendered a row: %+v", r)
		}
	}
}

func TestRenderFormats(t *testing.T) {
	tab := spec.SweepTable{
		Metric: "strucequ",
		Rows: []spec.SweepTableRow{
			{Graph: "ring", Method: "gap", Epsilon: 0.5, Mean: 0.5, Std: 0.01, N: 2},
			{Graph: "ring", Method: "sepriv", Epsilon: 0.5, Mean: 0.9125, Std: 0.0125, N: 2},
			{Graph: "ring", Method: "sepriv", Epsilon: 1, Mean: 0.95, Std: 0, N: 1},
		},
	}
	tsv := RenderTSV(tab)
	wantTSV := "graph\tmethod\tepsilon\tstrucequ_mean\tstrucequ_std\tn\n" +
		"ring\tgap\t0.5\t0.500000\t0.010000\t2\n" +
		"ring\tsepriv\t0.5\t0.912500\t0.012500\t2\n" +
		"ring\tsepriv\t1\t0.950000\t0.000000\t1\n"
	if tsv != wantTSV {
		t.Fatalf("TSV:\n%s\nwant:\n%s", tsv, wantTSV)
	}
	md := RenderMarkdown(tab)
	for _, want := range []string{
		"### ring (strucequ)",
		"| method | ε=0.5 | ε=1 |",
		"| gap | 0.5000±0.0100 | — |", // gap@1 missing → em dash
		"| sepriv | 0.9125±0.0125 | 0.9500±0.0000 |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown misses %q:\n%s", want, md)
		}
	}
}

// TestMeanSDCellFormat: two seeds scoring 0.5 and 0.7 print as their mean
// and sample standard deviation, to four decimals.
func TestMeanSDCellFormat(t *testing.T) {
	sp := baseSweep()
	sp.Methods = []string{"sepriv"}
	sp.Epsilons = []float64{1}
	p, err := Expand(sp, inlineResolver{})
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[experiments.ResultKey]float64)
	for _, c := range p.Cells {
		values[c.Key] = 0.3 + 0.2*float64(c.Seed)
	}
	md := RenderMarkdown(Aggregate(p, values))
	if want := "| sepriv | 0.6000±0.1414 |"; !strings.Contains(md, want) {
		t.Fatalf("markdown misses %q:\n%s", want, md)
	}
}

func TestGraphLabelCanonicalizesDatasetScale(t *testing.T) {
	zero := spec.GraphSource{Dataset: &spec.DatasetSource{Name: "chameleon", Scale: 0, Seed: 1}}
	lbl := GraphLabel(zero, nil)
	if strings.Contains(lbl, "@0/") {
		t.Fatalf("zero scale not canonicalized: %q", lbl)
	}
}

// TestRenderMarkdownKeepsMethodOrder: methods print in their order of first
// appearance, so a caller's legend order survives rendering — "B=1024"
// must not sort ahead of "B=128".
func TestRenderMarkdownKeepsMethodOrder(t *testing.T) {
	tab := spec.SweepTable{
		Metric: "strucequ",
		Rows: []spec.SweepTableRow{
			{Graph: "ring", Method: "B=128", Epsilon: 3.5, Mean: 0.1, N: 1},
			{Graph: "ring", Method: "B=1024", Epsilon: 3.5, Mean: 0.2, N: 1},
			{Graph: "ring", Method: "A", Epsilon: 3.5, Mean: 0.3, N: 1},
		},
	}
	md := RenderMarkdown(tab)
	i128 := strings.Index(md, "| B=128 |")
	i1024 := strings.Index(md, "| B=1024 |")
	iA := strings.Index(md, "| A |")
	if i128 < 0 || i1024 < 0 || iA < 0 || !(i128 < i1024 && i1024 < iA) {
		t.Fatalf("methods out of row order:\n%s", md)
	}
}

func TestFiniteOr(t *testing.T) {
	if finiteOr(0.5, 0) != 0.5 {
		t.Error("finiteOr altered a finite value")
	}
	nan := 0.0
	nan /= nan
	if finiteOr(nan, 0) != 0 {
		t.Error("finiteOr let NaN through")
	}
}
