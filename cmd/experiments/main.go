// Command experiments regenerates the paper's tables and figures on the
// simulated datasets.
//
// Usage:
//
//	experiments -exp table2|table3|table4|table5|table6|fig3|fig4|
//	            ablation-negsampling|ablation-accountant|all
//	            [-scale 0.1] [-seeds 3] [-epochs 100] [-epochs-lp 400]
//	            [-baseline-epochs 60] [-dim 64] [-dataset-seed 1]
//	            [-workers N]
//
// Every experiment is a list of sweeps (internal/spec.SweepSpec) run by one
// in-process service: the driver submits them, waits, relabels the rows
// to the paper's legend and prints one markdown table per experiment.
// -workers bounds the service's training slots (default: all CPUs);
// printed results are identical at any worker count.
//
// The paper's full protocol corresponds to -scale 1 -seeds 10 -epochs 200
// -epochs-lp 2000 -dim 128 (budget hours of CPU for the full Figure 3).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"seprivgemb/internal/datasets"
	"seprivgemb/internal/dp"
	"seprivgemb/internal/experiments"
	"seprivgemb/internal/service"
	"seprivgemb/internal/spec"
	"seprivgemb/internal/sweep"
)

func main() {
	// SIGINT/SIGTERM cancels the run: in-flight training stops at its next
	// epoch boundary and no further cells start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop() // restore default signal handling for the exit path
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	case errors.Is(err, context.Canceled):
		// Tables printed before the signal are complete and valid; the
		// interrupted experiment's table is not printed at all.
		fmt.Fprintln(os.Stderr, "experiments: interrupted — output above is complete up to the canceled experiment")
		os.Exit(130)
	default:
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports a command line naming no known experiment.
var errUsage = errors.New("usage")

// params are the command-line settings every experiment is built from.
type params struct {
	scale                            float64
	seeds, epochs, epochsLP, baseEps int
	dim                              int
	datasetSeed                      uint64
	memo                             *experiments.Memo // the service's dataset cache
}

// run parses args, runs the selected experiments and prints their tables
// to out. Failed cells are reported on errw and fail the run after every
// table is printed.
func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		exp     = fs.String("exp", "all", "experiment id (or 'all')")
		p       params
		workers int
	)
	fs.Float64Var(&p.scale, "scale", 0.1, "dataset node-count scale")
	fs.IntVar(&p.seeds, "seeds", 3, "repetitions per cell")
	fs.IntVar(&p.epochs, "epochs", 100, "SE epochs for structural equivalence")
	fs.IntVar(&p.epochsLP, "epochs-lp", 400, "SE epochs for link prediction")
	fs.IntVar(&p.baseEps, "baseline-epochs", 60, "GAN/VAE baseline epochs")
	fs.IntVar(&p.dim, "dim", 64, "embedding dimension")
	fs.Uint64Var(&p.datasetSeed, "dataset-seed", 1, "seed for dataset simulation")
	fs.IntVar(&workers, "workers", runtime.GOMAXPROCS(0), "training slots of the in-process service (printed results are identical at any count)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = order
	} else if _, ok := registry[*exp]; !ok {
		known := append([]string{"all"}, order...)
		sort.Strings(known)
		fmt.Fprintf(errw, "experiments: unknown -exp %q; known: %v\n", *exp, known)
		return errUsage
	}

	p.memo = experiments.NewMemo()
	// One finished job is enough: each cell's sweep scores its result and
	// lets go, so older embeddings need not stay resident.
	svc := service.New(service.Options{MaxWorkers: workers, Memo: p.memo, MemoLimits: service.Limits{MaxResults: 1}})
	defer func() {
		svc.CancelAll()
		svc.Close()
	}()

	failed := 0
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(out)
		}
		e := registry[id]
		if e.runs == nil {
			printAccountant(out, e.title)
			continue
		}
		n, err := runTable(ctx, svc, e.title, e.runs(p), out, errw)
		if err != nil {
			return err
		}
		failed += n
	}
	if failed > 0 {
		return fmt.Errorf("%d failed cells", failed)
	}
	return nil
}

// experiment is one table or figure of the paper: its title and the sweeps
// that produce it (nil for the accountant ablation, which trains nothing).
type experiment struct {
	title string
	runs  func(p params) []labeled
}

// labeled is one sweep of an experiment and the legend label of each row
// its table produces.
type labeled struct {
	sp    spec.SweepSpec
	label func(r spec.SweepTableRow) string
}

// order lists the experiment IDs in the order "all" runs them.
var order = []string{"table2", "table3", "table4", "table5", "table6",
	"fig3", "fig4", "ablation-negsampling", "ablation-accountant"}

var registry = map[string]experiment{
	"table2": paramTable("Table II: StrucEqu vs batch size B (ε=3.5)", "B",
		[]float64{32, 64, 128, 256, 512, 1024}, func(c *spec.ConfigSpec, v float64) { c.BatchSize = int(v) }),
	"table3": paramTable("Table III: StrucEqu vs learning rate η (ε=3.5)", "η",
		[]float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}, func(c *spec.ConfigSpec, v float64) { c.LearningRate = v }),
	"table4": paramTable("Table IV: StrucEqu vs clipping threshold C (ε=3.5)", "C",
		[]float64{1, 2, 3, 4, 5, 6}, func(c *spec.ConfigSpec, v float64) { c.Clip = v }),
	"table5": paramTable("Table V: StrucEqu vs negative sampling number k (ε=3.5)", "k",
		[]float64{1, 2, 3, 4, 5, 6, 7}, func(c *spec.ConfigSpec, v float64) { c.K = int(v) }),
	"table6":               {"Table VI: perturbation strategies on structural equivalence", table6},
	"fig3":                 figure("Figure 3: StrucEqu vs privacy budget ε", spec.MetricStrucEqu, datasets.Names()),
	"fig4":                 figure("Figure 4: link-prediction AUC vs privacy budget ε", spec.MetricLinkAUC, paramDatasets),
	"ablation-negsampling": {"Ablation: negative-sampling design (non-private, DeepWalk preference)", ablationNegSampling},
	"ablation-accountant":  {title: "Ablation: RDP accountant vs naive composition"},
}

// paramDatasets are the three datasets of the parameter studies (Section
// VI-B), Figure 4 and the negative-sampling ablation.
var paramDatasets = []string{"chameleon", "power", "arxiv"}

// seVariants are the paper's two SE-PrivGEmb structure preferences.
var seVariants = []struct{ label, prox string }{
	{"SE-PrivGEmbDW", "deepwalk"},
	{"SE-PrivGEmbDeg", "degree"},
}

// samplePairs scores graphs above 3000 nodes on sampled node pairs, the
// node count at which the exact O(|V|²) StrucEqu scan is abandoned.
const samplePairs = 3000 * 2999 / 2

// fixed labels every row of a sweep alike.
func fixed(label string) func(spec.SweepTableRow) string {
	return func(spec.SweepTableRow) string { return label }
}

// dataset names a simulated dataset at the run's scale.
func (p params) dataset(name string) spec.GraphSource {
	ds, _ := datasets.Get(name)
	return spec.GraphSource{Dataset: &spec.DatasetSource{Name: name, Scale: p.scale * ds.DefaultScale, Seed: p.datasetSeed}}
}

// sweepOver builds one sweep of methods over the named datasets at the
// given budgets, with p.seeds seeds counted up from seedBase.
func (p params) sweepOver(names, methods []string, prox string, eps []float64, seedBase uint64, cfg spec.ConfigSpec, metric string) spec.SweepSpec {
	sp := spec.SweepSpec{
		Methods:   methods,
		Epsilons:  eps,
		Proximity: prox,
		Config:    cfg,
		Eval:      spec.EvalSpec{Metric: metric, SamplePairs: samplePairs},
	}
	for _, n := range names {
		sp.Graphs = append(sp.Graphs, p.dataset(n))
	}
	for i := 0; i < p.seeds; i++ {
		sp.Seeds = append(sp.Seeds, seedBase+uint64(i))
	}
	return sp
}

// seConfig is the SE-PrivGEmb base config: paper defaults at the run's
// dimension and the given epoch budget.
func (p params) seConfig(epochs int) spec.ConfigSpec {
	return spec.ConfigSpec{Dim: p.dim, MaxEpochs: epochs}
}

// paramTable builds a Tables II–V experiment: one sweep per (variant,
// value) at ε = 3.5. Batch sizes the service clamps to a graph's |E| are
// starred on that graph.
func paramTable(title, param string, values []float64, set func(*spec.ConfigSpec, float64)) experiment {
	return experiment{title, func(p params) []labeled {
		edges := make(map[string]int) // graph label → |E|
		for _, name := range paramDatasets {
			src := p.dataset(name)
			// A dataset that fails here fails its sweep's expansion too.
			if g, err := p.memo.Dataset(name, src.Dataset.Scale, src.Dataset.Seed); err == nil {
				edges[sweep.GraphLabel(src, g)] = g.NumEdges()
			}
		}
		var runs []labeled
		for _, v := range seVariants {
			for _, val := range values {
				cfg := p.seConfig(p.epochs)
				set(&cfg, val)
				label := fmt.Sprintf("%s %s=%g", v.label, param, val)
				runs = append(runs, labeled{
					sp: p.sweepOver(paramDatasets, []string{"sepriv"}, v.prox, []float64{3.5}, 100, cfg, spec.MetricStrucEqu),
					label: func(r spec.SweepTableRow) string {
						if cfg.BatchSize > edges[r.Graph] {
							return label + "*"
						}
						return label
					},
				})
			}
		}
		return runs
	}}
}

// table6 is Table VI: naive (Eq. 6) vs non-zero (Eq. 9) perturbation, one
// sweep per (variant, strategy).
func table6(p params) []labeled {
	var runs []labeled
	for _, v := range seVariants {
		for _, strategy := range []string{"naive", "non-zero"} {
			cfg := p.seConfig(p.epochs)
			cfg.Strategy = strategy
			runs = append(runs, labeled{
				sp:    p.sweepOver(paramDatasets, []string{"sepriv"}, v.prox, []float64{0.5, 2, 3.5}, 100, cfg, spec.MetricStrucEqu),
				label: fixed(v.label + " " + strategy),
			})
		}
	}
	return runs
}

// baselineLegend maps the baselines' registry names to the paper's legend.
var baselineLegend = map[string]string{"dpggan": "DPGGAN", "dpgvae": "DPGVAE", "gap": "GAP", "progap": "ProGAP"}

// figure builds Figure 3 or 4: all eight methods across ε. The baselines
// share one sweep (their rows sort into legend order) at their own
// optimizer setting (batch 64, η = 0.05, C = 1); the SE variants are one
// sweep each, the non-private SE-GEmb counterparts appearing as flat
// utility ceilings.
// Link prediction trains the SE variants for -epochs-lp.
func figure(title, metric string, names []string) experiment {
	return experiment{title, func(p params) []labeled {
		eps := []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5}
		seedBase, epochs := uint64(200), p.epochs
		if metric == spec.MetricLinkAUC {
			seedBase, epochs = 400, p.epochsLP
		}
		runs := []labeled{{
			sp: p.sweepOver(names, []string{"dpggan", "dpgvae", "gap", "progap"}, "deepwalk", eps, seedBase,
				spec.ConfigSpec{Dim: p.dim, MaxEpochs: p.baseEps, BatchSize: 64, LearningRate: 0.05, Clip: 1}, metric),
			label: func(r spec.SweepTableRow) string { return baselineLegend[r.Method] },
		}}
		for _, v := range []struct{ label, prox string }{{"DW", "deepwalk"}, {"Deg", "degree"}} {
			for _, private := range []bool{false, true} {
				cfg := p.seConfig(epochs)
				cfg.Private = &private
				label := "SE-GEmb" + v.label
				if private {
					label = "SE-PrivGEmb" + v.label
				}
				runs = append(runs, labeled{sp: p.sweepOver(names, []string{"sepriv"}, v.prox, eps, seedBase, cfg, metric), label: fixed(label)})
			}
		}
		return runs
	}}
}

// ablationNegSampling compares the paper's uniform negative sampling
// (Theorem 3) with the prior-work degree-proportional design (Eq. 14/15)
// on structural equivalence, non-privately.
func ablationNegSampling(p params) []labeled {
	var runs []labeled
	for _, neg := range []struct{ name, label string }{{"uniform", "uniform (Thm 3)"}, {"degree", "degree (Eq. 15)"}} {
		cfg := p.seConfig(p.epochs)
		private := false
		cfg.Private, cfg.NegSampling = &private, neg.name
		runs = append(runs, labeled{
			sp:    p.sweepOver(paramDatasets, []string{"sepriv"}, "deepwalk", []float64{3.5}, 100, cfg, spec.MetricStrucEqu),
			label: fixed(neg.label),
		})
	}
	return runs
}

// printAccountant contrasts the RDP accountant the paper adopts with naive
// (linear) composition: the certified ε after increasing epochs at the
// paper's settings (σ=5, δ=1e-5, γ=128/31421 ≈ Chameleon's sampling rate).
// Without RDP the budget explodes and training would stop almost
// immediately.
func printAccountant(out io.Writer, title string) {
	const (
		sigma = 5.0
		delta = 1e-5
		gamma = 128.0 / 31421.0
	)
	fmt.Fprintf(out, "## %s (σ=%g, δ=%g, γ=%.5f)\n\n", title, sigma, delta, gamma)
	fmt.Fprint(out, "| epochs | RDP ε (Thm 4+5) | naive ε |\n|---|---|---|\n")
	eps0 := dp.GaussianDPEpsilon(sigma, delta)
	acct := dp.NewAccountant(nil)
	done := 0
	for _, cp := range []int{1, 10, 50, 100, 200, 500, 1000, 2000} {
		for ; done < cp; done++ {
			acct.AddGaussianStep(gamma, sigma)
		}
		rdpEps, _ := acct.EpsilonFor(delta)
		fmt.Fprintf(out, "| %d | %.4f | %.4f |\n", cp, rdpEps, dp.NaiveCompositionEpsilon(eps0, cp))
	}
}

// runTable submits every sweep, waits for all of them, and prints their
// relabeled rows as one table. Failed cells are listed on errw and
// counted; a canceled ctx cancels the sweeps and prints nothing.
func runTable(ctx context.Context, svc *service.Service, title string, runs []labeled, out, errw io.Writer) (int, error) {
	sweeps := make([]*service.Sweep, len(runs))
	for i := range runs {
		sw, err := svc.SubmitSweep(&runs[i].sp)
		if err != nil {
			return 0, err
		}
		sweeps[i] = sw
	}
	table := spec.SweepTable{}
	failed := 0
	for i, sw := range sweeps {
		res, err := sw.Wait(ctx)
		if err != nil {
			for _, sw := range sweeps {
				sw.Cancel()
			}
			return 0, err
		}
		table.Metric = res.Metric
		for _, r := range res.Table.Rows {
			r.Method = runs[i].label(r)
			table.Rows = append(table.Rows, r)
		}
		for _, c := range res.Cells {
			if c.Status != "done" {
				failed++
				fmt.Fprintf(errw, "experiments: %s: %s/%s ε=%g seed=%d %s: %s\n", title, c.Graph, c.Method, c.Epsilon, c.Seed, c.Status, c.Error)
			}
		}
	}
	fmt.Fprintf(out, "## %s\n\n%s", title, strings.TrimSuffix(sweep.RenderMarkdown(table), "\n"))
	return failed, nil
}
